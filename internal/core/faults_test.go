package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/lco"
	"repro/internal/parcel"
)

// TestDuplicationFaultsAndIdempotentLCOs: node-local parcels are delivered
// exactly once, so a count of deliveries and a gate sized one past its
// signals both come out exact — any repeated dispatch would show.
func TestDuplicationFaultsAndIdempotentLCOs(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	var hits atomic.Int64
	r.MustRegisterAction("fault.count", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		hits.Add(1)
		return nil, nil
	})
	obj := r.NewDataAt(1, struct{}{})
	const n = 300
	for i := 0; i < n; i++ {
		r.SendFrom(0, parcel.New(obj, "fault.count", nil))
	}
	r.Wait()
	if hits.Load() != n {
		t.Fatalf("delivered %d, want exactly %d", hits.Load(), n)
	}

	// A gate sized for n+1 holds after n signals, then fires once on the
	// last one.
	ggid, gate := r.NewAndGateAt(0, n+1)
	var fires atomic.Int64
	gate.OnFire(func() { fires.Add(1) })
	for i := 0; i < n; i++ {
		r.SendFrom(1, parcel.New(ggid, ActionLCOSignal, nil))
	}
	r.Wait()
	if left := gate.Remaining(); left != 1 || fires.Load() != 0 {
		t.Fatalf("after %d signals: %d remaining, %d fires; want 1 and 0", n, left, fires.Load())
	}
	r.SendFrom(1, parcel.New(ggid, ActionLCOSignal, nil))
	r.Wait()
	gate.Wait()
	if fires.Load() != 1 {
		t.Fatalf("gate fired %d times, want 1", fires.Load())
	}
}

// TestDuplicatedFutureSetReportsSecondWrite: futures are single-assignment,
// so a second set parcel must surface as an ErrAlreadySet runtime error,
// not silent corruption.
func TestDuplicatedFutureSetReportsSecondWrite(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 1})
	defer r.Shutdown()
	fgid, fut := r.NewFutureAt(1)
	val, _ := parcel.EncodeAny(int64(9))
	for i := 0; i < 2; i++ {
		r.SendFrom(0, parcel.New(fgid, ActionLCOSet, parcel.NewArgs().Bytes(val).Encode()))
	}
	r.Wait()
	v, err := fut.Get()
	if err != nil || v.(int64) != 9 {
		t.Fatalf("first set lost: %v %v", v, err)
	}
	errs := r.Errors()
	if len(errs) != 1 || !errors.Is(errs[0], lco.ErrAlreadySet) {
		t.Fatalf("second set recorded %v, want one ErrAlreadySet", errs)
	}
}

func TestNoFaultsByDefault(t *testing.T) {
	r := New(Config{Localities: 2})
	defer r.Shutdown()
	if r.Silenced() != 0 {
		t.Fatal("fault counter nonzero without injection")
	}
}

// TestCrashAndPartitionFaultsAreDeterministic: the kill and partition
// knobs count wire frames and flip at an exact count, so two injectors
// with the same config silence exactly the same frame sequence — the
// property that makes a failing chaos run replayable from its counts.
func TestCrashAndPartitionFaultsAreDeterministic(t *testing.T) {
	cfg := Faults{}.KillPeerAfter(2, 5).PartitionPeersAfter(0, 1, 3)
	run := func() []bool {
		f := newFaultState(cfg)
		// A fixed interleaving of frames as seen by node 2 (the victim)
		// and across the 0<->1 link.
		var verdicts []bool
		for i := 0; i < 20; i++ {
			verdicts = append(verdicts, f.silence(2, i%2)) // node 2's boundary
			verdicts = append(verdicts, f.silence(0, 1))   // the partitioned link
			verdicts = append(verdicts, f.silence(1, 0))   // reverse direction
			verdicts = append(verdicts, f.silence(1, 2))   // unrelated link: never muted
		}
		return verdicts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged between identical configs: %v vs %v", i, a[i], b[i])
		}
	}
	// The exact thresholds: frame KillAfter passes, frame KillAfter+1 mutes.
	f := newFaultState(Faults{}.KillPeerAfter(0, 2))
	got := []bool{f.silence(0, 1), f.silence(0, 1), f.silence(0, 1), f.silence(0, 1)}
	want := []bool{false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kill threshold off at frame %d: got %v want %v", i+1, got, want)
		}
	}
	// Frames not involving the victim or the cut link are never silenced.
	if f.silence(1, 2) {
		t.Fatal("silenced a frame on an unrelated link")
	}
	// Zero knobs build no injector at all.
	if newFaultState(Faults{}) != nil {
		t.Fatal("fault state built with nothing configured")
	}
}
