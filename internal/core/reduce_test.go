package core

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/agas"
	"repro/internal/parcel"
)

// distLCOGolden is the px.distlco record (the whole EncodeAny record, tag
// and codec name included) of four LCOs built by goldenLCOs. The bytes are
// the wire: a node of another build decodes exactly these, so they change
// only with distLCOCodecVersion.
var distLCOGolden = []struct {
	name string
	hex  string
}{
	{"reduce int64", "0a0a0070782e646973746c636f400000000203030000000a0070782e7265642e73756d000000010900000001e8030000000000000000000001000000020000000300000009000000000000000100000000"},
	{"reduce float64", "0a0a0070782e646973746c636f550000000203050000000a0070782e7265642e6d617800000001090000000300000000000004c00000000002000000020000000300000009000000000000000100000000000000000300000004000000000000000502000000"},
	{"reduce unset", "0a0a0070782e646973746c636f240000000203020000000a0070782e7265642e6d696e000000010200000004000000000000000000"},
	{"dataflow half-filled", "0a0a0070782e646973746c636f510000000204020000000a0070782e7265642e73756d00000000040000000109000000012c0100000000000000010900000003000000000000d03f0001000000000000000300000004000000000000000502000000"},
}

// goldenLCOs builds distLCOGolden's LCOs through the public constructors
// and triggers, on locality 0 of r, in the same order.
func goldenLCOs(t *testing.T, r *Runtime) []agas.GID {
	t.Helper()
	ws := []Waiter{
		{Target: agas.GID{Home: 2, Kind: agas.KindLCO, Seq: 9}, Op: TrigSet},
		{Target: agas.GID{Home: 0, Kind: agas.KindLCO, Seq: 4}, Op: TrigSupply, Slot: 2},
	}
	df := r.NewDistDataflowAt(0, 4, ReduceSum, ws[1])
	for slot, v := range map[uint32]any{0: int64(300), 2: float64(0.25)} {
		if err := r.SupplyLCO(0, df, slot, v); err != nil {
			t.Fatal(err)
		}
	}
	gids := []agas.GID{
		r.NewDistReduceAt(0, 3, ReduceSum, int64(1000), ws[0]),
		r.NewDistReduceAt(0, 5, ReduceMax, float64(-2.5), ws...),
		r.NewDistReduceAt(0, 2, ReduceMin, nil),
		df,
	}
	r.Wait()
	return gids
}

// TestDistLCOCodecGolden: a migrating reduce or dataflow is encoded to
// exactly the recorded bytes — the accumulator as the same value record
// whatever form the LCO keeps it in, an unset one as a false bool — and
// decoding those bytes and encoding again gives them back.
func TestDistLCOCodecGolden(t *testing.T) {
	r := New(Config{Localities: 1})
	defer r.Shutdown()
	for i, g := range goldenLCOs(t, r) {
		tc := distLCOGolden[i]
		obj, _ := r.LocalObject(0, g)
		raw, err := parcel.EncodeAny(obj)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(raw); got != tc.hex {
			t.Errorf("%s encodes as\n%s\nwant\n%s", tc.name, got, tc.hex)
		}
		want, _ := hex.DecodeString(tc.hex)
		back, err := parcel.DecodeAny(want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		again, err := parcel.EncodeAny(back)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(again) != tc.hex {
			t.Errorf("%s: decode then encode gives\n%x\nwant\n%s", tc.name, again, tc.hex)
		}
	}
	// The reducer is resolved as the record decodes: an unknown name fails
	// there, not at the first contribution after a move.
	bad, _ := hex.DecodeString(strings.Replace(distLCOGolden[0].hex, hex.EncodeToString([]byte("sum")), hex.EncodeToString([]byte("sux")), 1))
	if _, err := parcel.DecodeAny(bad); err == nil {
		t.Error("a reduce naming an unknown reducer decoded")
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// TestDistDataflowFoldsItsSlots: a complete dataflow folds its slots with
// the reductions' operations, from unset: a count counts the slots, and
// slots that do not fold fail the template rather than the node.
func TestDistDataflowFoldsItsSlots(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	for _, tc := range []struct {
		op    string
		slots []any
		want  any // nil: the template fails
	}{
		{ReduceCount, []any{"a", int64(9), 2.5}, int64(3)},
		{ReduceMin, []any{int64(300), int64(-4), int64(7)}, int64(-4)},
		{ReduceMax, []any{0.5, 2.5, 1.5}, 2.5},
		{ReduceSum, []any{int64(1), 2.5}, nil},
		{ReduceSum, []any{int64(1), "2"}, nil},
	} {
		df := r.NewDistDataflowAt(1, len(tc.slots), tc.op)
		w := r.WaitLCO(0, df)
		for i, v := range tc.slots {
			if err := r.SupplyLCO(0, df, uint32(i), v); err != nil {
				t.Fatal(err)
			}
		}
		v, err := w.Get()
		if tc.want == nil && err == nil || tc.want != nil && (err != nil || v != tc.want) {
			t.Errorf("%s over %v = %v (%T), %v; want %v (%T)", tc.op, tc.slots, v, v, err, tc.want, tc.want)
		}
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// TestDistReduceMismatchedContributionFails: a contribution whose kind
// does not match the accumulator's — any peer can send one — fails that
// trigger with ErrTriggerMismatch, recorded in Errors, and leaves the
// reduction as it was: nothing folded, nothing counted, the node alive.
func TestDistReduceMismatchedContributionFails(t *testing.T) {
	for _, tc := range []struct {
		name       string
		init, bad  any
		good, want any
	}{
		{"float into int64", int64(0), float64(1.5), int64(300), int64(600)},
		{"int into float64", float64(0), int64(2), float64(1.5), float64(3)},
		{"string into int64", int64(1), "x", int64(2), int64(5)},
		{"int after float into unset", nil, int64(2), float64(0.5), float64(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(Config{Localities: 2, WorkersPerLocality: 2})
			defer r.Shutdown()
			red := r.NewDistReduceAt(1, 2, ReduceSum, tc.init)
			w := r.WaitLCO(0, red)
			if tc.init == nil {
				// An unset accumulator takes the first contribution's kind.
				if err := r.ContributeLCO(0, red, tc.good); err != nil {
					t.Fatal(err)
				}
				r.Wait()
			}
			if err := r.ContributeLCO(0, red, tc.bad); err != nil {
				t.Fatal(err)
			}
			r.Wait()
			errs := r.Errors()
			if len(errs) != 1 || !errors.Is(errs[0], ErrTriggerMismatch) {
				t.Fatalf("errors after a mismatched contribution: %v; want one wrapping ErrTriggerMismatch", errs)
			}
			obj, _ := r.LocalObject(1, red)
			pending := 2
			if tc.init == nil {
				pending = 1
			}
			if got := obj.(*DistLCO).Pending(); got != pending {
				t.Fatalf("%d pending after the mismatch, want %d", got, pending)
			}
			for n := pending; n > 0; n-- {
				if err := r.ContributeLCO(0, red, tc.good); err != nil {
					t.Fatal(err)
				}
			}
			if v, err := w.Get(); err != nil || v != tc.want {
				t.Fatalf("reduce = %v (%T), %v; want %v (%T)", v, v, err, tc.want, tc.want)
			}
		})
	}
	// A record that is no value at all fails the same way, a count's too:
	// a count takes any value, but only a value.
	for _, op := range []string{ReduceSum, ReduceCount} {
		for name, rec := range map[string][]byte{
			"empty":           nil,
			"unknown tag":     {0xee, 1, 2, 3, 4, 5, 6, 7, 8},
			"truncated int64": {1, 0x2c, 0x01},
		} {
			t.Run(op+"/"+name+" record", func(t *testing.T) {
				r := New(Config{Localities: 2, WorkersPerLocality: 2})
				defer r.Shutdown()
				red := r.NewDistReduceAt(1, 2, op, int64(0))
				p, a := newTrigger(red, TrigContribute, 0)
				a.Bytes(rec)
				r.sendTrigger(0, p, a)
				r.Wait()
				errs := r.Errors()
				if len(errs) != 1 || !errors.Is(errs[0], ErrTriggerMismatch) {
					t.Fatalf("errors after a malformed contribution: %v; want one wrapping ErrTriggerMismatch", errs)
				}
				obj, _ := r.LocalObject(1, red)
				if v, _, _ := obj.(*DistLCO).Resolved(); obj.(*DistLCO).Pending() != 2 || v != int64(0) {
					t.Fatalf("%d pending, accumulator %v after a malformed contribution; want 2 and 0", obj.(*DistLCO).Pending(), v)
				}
			})
		}
	}
}

// TestDistReduceIntInitWidens: an int init is the int64 the wire would
// make of it, so a reduction folds from it, and a copy decoded from its
// migration encoding holds the same accumulator as the original. A count
// counts on from its init, of either kind.
func TestDistReduceIntInitWidens(t *testing.T) {
	r := New(Config{Localities: 1, WorkersPerLocality: 2})
	defer r.Shutdown()
	for _, tc := range []struct {
		op              string
		init, acc, want any
	}{
		{ReduceSum, 5, int64(5), int64(8)},
		{ReduceCount, 5, int64(5), int64(7)},
		{ReduceCount, 5.0, 5.0, 7.0},
	} {
		red := r.NewDistReduceAt(0, 2, tc.op, tc.init)
		obj, _ := r.LocalObject(0, red)
		raw, err := parcel.EncodeAny(obj)
		if err != nil {
			t.Fatal(err)
		}
		moved, err := parcel.DecodeAny(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []*DistLCO{obj.(*DistLCO), moved.(*DistLCO)} {
			if v, _, _ := l.Resolved(); v != tc.acc {
				t.Errorf("%s from %T %v: accumulator %v (%T), want %v (%T)", tc.op, tc.init, tc.init, v, v, tc.acc, tc.acc)
			}
		}
		w := r.WaitLCO(0, red)
		for _, v := range []int64{1, 2} {
			if err := r.ContributeLCO(0, red, v); err != nil {
				t.Fatal(err)
			}
		}
		if v, err := w.Get(); err != nil || v != tc.want {
			t.Errorf("%s from %T %v = %v (%T), %v; want %v (%T)", tc.op, tc.init, tc.init, v, v, err, tc.want, tc.want)
		}
	}
}

// TestDistReduceContributeAllocationFree: folding a node-local
// contribution into a reduction allocates nothing beyond the caller's own
// box of the value — the trigger parcel is pooled, and the value is read
// from its record into the unboxed accumulator, not decoded into a box
// and re-boxed by the fold. The values are at least 256, which the Go
// runtime would box for free, so a box on the path shows as one.
//
// A pool miss can round a run up to 1 alloc/op, so each body gets three
// runs, as TestHotPathsAllocationFree's do, and passes on the first that
// reports 0.
func TestDistReduceContributeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	r := New(Config{Localities: 2, WorkersPerLocality: 1})
	defer r.Shutdown()
	for _, tc := range []struct {
		name    string
		op      string
		init, v any
		want    func(n int) any // the accumulator after n contributions
	}{
		{"int64 sum", ReduceSum, int64(0), int64(1000), func(n int) any { return int64(1000 * n) }},
		{"int64 max", ReduceMax, int64(256), int64(300), func(int) any { return int64(300) }},
		{"float64 sum", ReduceSum, float64(0), float64(1.5), func(n int) any { return 1.5 * float64(n) }},
		{"float64 min", ReduceMin, float64(0), float64(-2.5), func(int) any { return float64(-2.5) }},
	} {
		red := r.NewDistReduceAt(1, 1<<30, tc.op, tc.init)
		n := 0
		contribute := func() {
			if err := r.ContributeLCO(0, red, tc.v); err != nil {
				t.Fatal(err)
			}
			r.Wait()
			n++
		}
		for i := 0; i < 100; i++ {
			contribute() // warm the pools
		}
		for run := 1; ; run++ {
			allocs := testing.AllocsPerRun(1000, contribute)
			t.Logf("%s run %d: %.2f allocs per contribution", tc.name, run, allocs)
			if allocs == 0 {
				break
			}
			if run == 3 {
				t.Errorf("%s: %.2f allocs per contribution on each of %d runs, want 0", tc.name, allocs, run)
				break
			}
		}
		obj, _ := r.LocalObject(1, red)
		if v, _, _ := obj.(*DistLCO).Resolved(); v != tc.want(n) {
			t.Errorf("%s: accumulator %v after %d contributions of %v, want %v", tc.name, v, n, tc.v, tc.want(n))
		}
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}
