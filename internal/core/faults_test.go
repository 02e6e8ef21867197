package core

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/parcel"
)

func TestDuplicationFaultsAndIdempotentLCOs(t *testing.T) {
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Faults:             Faults{DupOneIn: 3, Seed: 11},
	})
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
	duped := int64(r.Duplicated())
	if duped == 0 {
		t.Fatal("fault injector duplicated nothing at 1-in-3")
	}
	if hits.Load() != n+duped {
		t.Fatalf("delivered %d, want %d + %d duplicates", hits.Load(), n, duped)
	}

	// An AndGate tolerates duplicated signals: extra signals past zero are
	// ignored, so a gate sized for n still fires exactly once.
	ggid, gate := r.NewAndGateAt(0, n)
	var fires atomic.Int64
	gate.OnFire(func() { fires.Add(1) })
	for i := 0; i < n; i++ {
		r.SendFrom(1, parcel.New(ggid, ActionLCOSignal, nil))
	}
	r.Wait()
	gate.Wait()
	if fires.Load() != 1 {
		t.Fatalf("gate fired %d times under duplication", fires.Load())
	}
}

func TestDuplicatedFutureSetReportsSecondWrite(t *testing.T) {
	// Futures are single-assignment: a duplicated set parcel must surface
	// as an ErrAlreadySet runtime error, not silent corruption. Force
	// duplication of every parcel.
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 1,
		Faults:             Faults{DupOneIn: 1, Seed: 3},
	})
	defer r.Shutdown()
	fgid, fut := r.NewFutureAt(1)
	val, _ := parcel.EncodeAny(int64(9))
	r.SendFrom(0, parcel.New(fgid, ActionLCOSet, parcel.NewArgs().Bytes(val).Encode()))
	r.Wait()
	v, err := fut.Get()
	if err != nil || v.(int64) != 9 {
		t.Fatalf("first set lost: %v %v", v, err)
	}
	errs := r.Errors()
	if len(errs) == 0 {
		t.Fatal("duplicate set swallowed silently")
	}
}

// TestDuplicateOwnsItsArgs: a duplicated node-local parcel is a copy that
// owns its argument bytes. The original may run and be released (here
// poisoned) before the copy runs, so a copy that referenced the original's
// bytes would read the poison. Each chain's first hop stays on L1; its
// continuation crosses L1 → L0 carrying the value in its own argument store
// (AcquireValue), and every crossing is duplicated.
func TestDuplicateOwnsItsArgs(t *testing.T) {
	parcel.SetPoolDebug(true)
	defer parcel.SetPoolDebug(false)
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Faults:             Faults{DupOneIn: 1, Seed: 13},
	})
	defer r.Shutdown()
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(i + 1)
	}
	var seen, wrong atomic.Int64
	r.MustRegisterAction("dup.value64", func(*Context, any, *parcel.Reader) (any, error) {
		return want, nil
	})
	r.MustRegisterAction("dup.check", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
		v, err := decodeValueArg(args)
		if got, ok := v.([]byte); err != nil || !ok || !bytes.Equal(got, want) {
			wrong.Add(1)
		}
		seen.Add(1)
		return nil, nil
	})
	first, last := r.NewDataAt(1, struct{}{}), r.NewDataAt(0, struct{}{})
	const n = 200
	for i := 0; i < n; i++ {
		r.SendFrom(1, parcel.New(first, "dup.value64", nil, parcel.Continuation{Target: last, Action: "dup.check"}))
	}
	r.Wait()
	if seen.Load() != 2*n || wrong.Load() != 0 {
		t.Fatalf("L0 saw %d values, %d of them wrong; want %d, all exact", seen.Load(), wrong.Load(), 2*n)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

func TestNoFaultsByDefault(t *testing.T) {
	r := New(Config{Localities: 2})
	defer r.Shutdown()
	if r.Duplicated() != 0 || r.Silenced() != 0 {
		t.Fatal("fault counters nonzero without injection")
	}
}

// TestCrashAndPartitionFaultsAreDeterministic: the kill and partition
// knobs count wire frames and flip at an exact count, so two injectors
// with the same config silence exactly the same frame sequence — the
// property that makes a failing chaos run replayable from its seed.
func TestCrashAndPartitionFaultsAreDeterministic(t *testing.T) {
	cfg := Faults{Seed: 99}.KillPeerAfter(2, 5).PartitionPeersAfter(0, 1, 3)
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
	if newFaultState(Faults{Seed: 99}) != nil {
		t.Fatal("fault state built with nothing configured")
	}
}
