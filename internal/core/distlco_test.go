package core

import (
	"sync"
	"testing"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// TestDistLCOLocalTriggerPaths drives every trigger operation against
// locally hosted distributed LCOs through the parcel path.
func TestDistLCOLocalTriggerPaths(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()

	fut := r.NewDistFutureAt(0)
	wf := r.WaitLCO(1, fut)
	if err := r.SetLCO(1, fut, int64(42)); err != nil {
		t.Fatal(err)
	}
	if v, err := wf.Get(); err != nil || v.(int64) != 42 {
		t.Fatalf("future = %v, %v; want 42", v, err)
	}

	gate := r.NewDistGateAt(0, 3)
	wg := r.WaitLCO(0, gate)
	for i := 0; i < 3; i++ {
		r.SignalLCO(i%2, gate)
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("gate: %v", err)
	}

	red := r.NewDistReduceAt(1, 4, ReduceSum, int64(0))
	wr := r.WaitLCO(0, red)
	for i := 1; i <= 4; i++ {
		if err := r.ContributeLCO(0, red, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := wr.Get(); err != nil || v.(int64) != 10 {
		t.Fatalf("reduce = %v, %v; want 10", v, err)
	}

	df := r.NewDistDataflowAt(0, 3, ReduceSum)
	wd := r.WaitLCO(1, df)
	for i := 0; i < 3; i++ {
		if err := r.SupplyLCO(1, df, uint32(i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := wd.Get(); err != nil || v.(float64) != 6 {
		t.Fatalf("dataflow = %v, %v; want 6", v, err)
	}

	ff := r.NewDistFutureAt(0)
	wfail := r.WaitLCO(0, ff)
	r.FailLCO(1, ff, "deliberate")
	if _, err := wfail.Get(); err == nil {
		t.Fatal("failed LCO resolved without error")
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// TestDistLCOLocalDuplicationIdempotence floods distributed LCOs with
// trigger parcels while the fault injector duplicates aggressively: the
// identified triggers must count exactly once each, with no recorded
// errors — the local trigger path's duplicate-delivery idempotence.
func TestDistLCOLocalDuplicationIdempotence(t *testing.T) {
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Faults:             Faults{DupOneIn: 1, Seed: 5}, // duplicate everything
	})
	defer r.Shutdown()

	const n = 100
	gate := r.NewDistGateAt(1, n)
	wg := r.WaitLCO(0, gate)
	red := r.NewDistReduceAt(1, n, ReduceSum, int64(0))
	wr := r.WaitLCO(0, red)
	for i := 0; i < n; i++ {
		r.SignalLCO(0, gate)
		if err := r.ContributeLCO(0, red, int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("gate under duplication: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != n {
		t.Fatalf("reduce under duplication = %v, %v; want %d", v, err, n)
	}
	r.Wait()
	if r.Duplicated() == 0 {
		t.Fatal("fault injector duplicated nothing at 1-in-1")
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("duplicated identified triggers recorded errors: %v", errs)
	}
	// n signals plus the wait subscription, each exactly once.
	if obj, ok := r.LocalObject(1, gate); ok {
		if seen := obj.(*DistLCO).TriggersSeen(); seen != n+1 {
			t.Fatalf("gate dedup recorded %d distinct triggers, want %d", seen, n+1)
		}
	}
}

// TestDistLCORemoteDuplicationIdempotence runs the same storm across a
// 3-node loopback fabric. The wire between nodes loses and duplicates
// nothing, so each trigger starts as an intra-node parcel, duplicated at
// 1-in-2, whose continuation signals or contributes to the LCOs on node 0:
// a duplicated first hop puts two same-ID triggers on the wire, and the
// target's dedup set must absorb the second.
func TestDistLCORemoteDuplicationIdempotence(t *testing.T) {
	fabric := transport.NewFabric(3)
	ranges := []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}
	rts := make([]*Runtime, 3)
	for i := range rts {
		rts[i] = New(Config{
			Transport:          fabric.Node(i),
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: 2,
			Faults:             Faults{DupOneIn: 2, Seed: int64(i + 1)},
			Register: func(r *Runtime) {
				r.MustRegisterAction("test.one", func(*Context, any, *parcel.Reader) (any, error) {
					return int64(1), nil
				})
			},
		})
	}
	defer func() {
		for _, r := range rts {
			r.Shutdown()
		}
	}()

	const perNode = 40
	gate := rts[0].NewDistGateAt(0, 2*perNode)
	red := rts[0].NewDistReduceAt(0, 2*perNode, ReduceSum, int64(0))
	wg := rts[0].WaitLCO(0, gate)
	wr := rts[0].WaitLCO(0, red)
	for n := 1; n <= 2; n++ {
		lo := ranges[n].Lo
		hop := rts[n].NewDataAt(lo+1, struct{}{})
		for i := 0; i < perNode; i++ {
			rts[n].SendFrom(lo, parcel.New(hop, "test.one", nil,
				parcel.Continuation{Target: gate, Action: ActionLCOSignal}))
			rts[n].SendFrom(lo, parcel.New(hop, "test.one", nil,
				parcel.Continuation{Target: red, Action: ActionLCOContribute}))
		}
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("remote gate under duplication: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != 2*perNode {
		t.Fatalf("remote reduce = %v, %v; want %d", v, err, 2*perNode)
	}
	rts[0].Wait()
	var duped uint64
	for _, r := range rts {
		duped += r.Duplicated()
	}
	if duped == 0 {
		t.Fatal("no duplication injected across three nodes at 1-in-2")
	}
	for i, r := range rts {
		if errs := r.Errors(); len(errs) != 0 {
			t.Fatalf("node %d recorded errors: %v", i, errs)
		}
	}
	// Each signal counted once, plus the wait subscription.
	obj, _ := rts[0].LocalObject(0, gate)
	if seen := obj.(*DistLCO).TriggersSeen(); seen != 2*perNode+1 {
		t.Fatalf("gate recorded %d distinct triggers, want %d", seen, 2*perNode+1)
	}
}

// TestDistLCOMidMigrationIdempotence hammers a distributed gate with
// identified triggers while the gate migrates back and forth between
// localities, with duplication injected: triggers park at the migration
// fence, chase the forwarding pointer, and must still count exactly once
// each — the dedup set travels with the object.
func TestDistLCOMidMigrationIdempotence(t *testing.T) {
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Faults:             Faults{DupOneIn: 2, Seed: 9},
	})
	defer r.Shutdown()

	const n = 120
	gate := r.NewDistGateAt(0, n)
	done := r.WaitLCO(0, gate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			r.SignalLCO(i%2, gate)
		}
	}()
	for m := 0; m < 6; m++ {
		if err := r.Migrate(gate, 1-m%2); err != nil {
			t.Fatalf("migration %d: %v", m, err)
		}
	}
	wg.Wait()
	if _, err := done.Get(); err != nil {
		t.Fatalf("gate under migration + duplication: %v", err)
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// TestDistLCOWaiterSurvivesMigration subscribes a waiter, migrates the
// LCO, and only then resolves it: the waiter list must travel with the
// object and fire from its new home.
func TestDistLCOWaiterSurvivesMigration(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	fut := r.NewDistFutureAt(0)
	w := r.WaitLCO(0, fut)
	r.Wait() // the subscription must land before the move
	if err := r.Migrate(fut, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.SetLCO(0, fut, "moved"); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Get(); err != nil || v.(string) != "moved" {
		t.Fatalf("waiter after migration = %v, %v; want moved", v, err)
	}
	if obj, ok := r.LocalObject(1, fut); !ok {
		t.Fatal("future not hosted at its migration destination")
	} else if _, _, resolved := obj.(*DistLCO).Resolved(); !resolved {
		t.Fatal("migrated future unresolved after set")
	}
}

// TestDistLCOCodecRoundTrip pushes a half-resolved LCO through the wire
// codec and checks every piece of state survives.
func TestDistLCOCodecRoundTrip(t *testing.T) {
	l := &DistLCO{
		kind: lcoReduce, need: 3, opName: ReduceSum, val: int64(7),
		waiters: []Waiter{
			{Target: agas.GID{Home: 2, Kind: agas.KindLCO, Seq: 9}, Op: TrigContribute},
			{Target: agas.GID{Home: 0, Kind: agas.KindLCO, Seq: 4}, Op: TrigSupply, Slot: 2},
		},
	}
	l.dedup.Add(101)
	l.dedup.Add(202)
	raw, err := parcel.EncodeAny(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parcel.DecodeAny(raw)
	if err != nil {
		t.Fatal(err)
	}
	d := back.(*DistLCO)
	if d.kind != lcoReduce || d.need != 3 || d.opName != ReduceSum || d.val.(int64) != 7 {
		t.Fatalf("state lost: %+v", d)
	}
	if d.dedup.Len() != 2 || !d.dedup.Seen(101) || !d.dedup.Seen(202) {
		t.Fatal("dedup set lost")
	}
	if len(d.waiters) != 2 || d.waiters[0] != l.waiters[0] || d.waiters[1] != l.waiters[1] {
		t.Fatalf("waiters lost: %+v", d.waiters)
	}

	// A dataflow with one filled slot.
	df := &DistLCO{kind: lcoDataflow, need: 1, opName: ReduceMax,
		slots: []any{float64(3.5), nil}, filled: []bool{true, false}}
	raw, err = parcel.EncodeAny(df)
	if err != nil {
		t.Fatal(err)
	}
	back, err = parcel.DecodeAny(raw)
	if err != nil {
		t.Fatal(err)
	}
	d = back.(*DistLCO)
	if len(d.slots) != 2 || !d.filled[0] || d.filled[1] || d.slots[0].(float64) != 3.5 {
		t.Fatalf("slots lost: %+v filled %+v", d.slots, d.filled)
	}
}

// TestDistLCOContinuationTarget checks the tentpole's continuation
// contract: a parcel continuation may name a distributed LCO as its
// target, and the action result resolves it.
func TestDistLCOContinuationTarget(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	r.MustRegisterAction("test.seven", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return int64(7), nil
	})
	obj := r.NewDataAt(1, struct{}{})
	fut := r.NewDistFutureAt(0)
	w := r.WaitLCO(0, fut)
	p := parcel.New(obj, "test.seven", nil, parcel.Continuation{Target: fut, Action: ActionLCOSet})
	r.SendFrom(0, p)
	if v, err := w.Get(); err != nil || v.(int64) != 7 {
		t.Fatalf("continuation into DistLCO = %v, %v; want 7", v, err)
	}
}

// TestDistLCOContinuationDuplicationIdempotence checks that
// continuation-borne triggers (px.lco.signal/contribute naming a DistLCO)
// are deduplicated under fault duplication: the trigger ID derives from
// the carrying parcel, and a duplicated parcel shares its original's ID.
func TestDistLCOContinuationDuplicationIdempotence(t *testing.T) {
	r := New(Config{
		Localities:         2,
		WorkersPerLocality: 2,
		Faults:             Faults{DupOneIn: 1, Seed: 23}, // duplicate everything
	})
	defer r.Shutdown()
	r.MustRegisterAction("test.one", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return int64(1), nil
	})
	const n = 60
	obj := r.NewDataAt(1, struct{}{})
	gate := r.NewDistGateAt(0, n)
	red := r.NewDistReduceAt(0, n, ReduceSum, int64(0))
	wg := r.WaitLCO(0, gate)
	wr := r.WaitLCO(0, red)
	for i := 0; i < n; i++ {
		r.SendFrom(0, parcel.New(obj, "test.one", nil,
			parcel.Continuation{Target: gate, Action: ActionLCOSignal}))
		r.SendFrom(0, parcel.New(obj, "test.one", nil,
			parcel.Continuation{Target: red, Action: ActionLCOContribute}))
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("gate via duplicated continuations: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != n {
		t.Fatalf("reduce via duplicated continuations = %v, %v; want %d", v, err, n)
	}
	r.Wait()
	if r.Duplicated() == 0 {
		t.Fatal("fault injector duplicated nothing at 1-in-1")
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
	// The sharp check: every continuation parcel must have carried a
	// distinct identified trigger (n signals + the wait subscription).
	// With unidentified (ID 0) triggers the gate would have resolved
	// after half the parcels and recorded only the subscription.
	if obj, ok := r.LocalObject(0, gate); ok {
		if seen := obj.(*DistLCO).TriggersSeen(); seen != n+1 {
			t.Fatalf("gate recorded %d distinct triggers, want %d", seen, n+1)
		}
	}
}

// TestRegisterReducerValidation covers reducer registration errors and
// the construction-time check for unknown operators.
func TestRegisterReducerValidation(t *testing.T) {
	r := New(Config{Localities: 1})
	defer r.Shutdown()
	if err := r.RegisterReducer("", nil); err == nil {
		t.Fatal("nameless reducer accepted")
	}
	if err := r.RegisterReducer(ReduceSum, func(acc, v any) any { return acc }); err == nil {
		t.Fatal("duplicate reducer accepted")
	}
	if err := r.RegisterReducer("test.custom", func(acc, v any) any { return v }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown reducer at construction did not panic")
		}
	}()
	r.NewDistReduceAt(0, 1, "no.such.op", nil)
}

// TestDistLCOLateTriggerToFreedTarget checks the benign-straggler path: a
// duplicated trigger arriving after its one-shot target was consumed and
// freed is dropped silently instead of polluting the error log.
func TestDistLCOLateTriggerToFreedTarget(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	fgid, fut := r.NewFutureAt(0)
	if err := r.triggerValue(1, fgid, 77, TrigSet, 0, int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	r.FreeObject(fgid)
	// The straggler: same trigger, target gone.
	if err := r.triggerValue(1, fgid, 77, TrigSet, 0, int64(1)); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("late trigger to freed target recorded errors: %v", errs)
	}
}

// TestSingleProcessNodeView pins the degenerate machine view of a runtime
// with no transport: one node holding every locality.
func TestSingleProcessNodeView(t *testing.T) {
	r := New(Config{Localities: 1})
	defer r.Shutdown()
	if r.Nodes() != 1 {
		t.Fatalf("Nodes() = %d on a single process", r.Nodes())
	}
	if rg := r.NodeRange(0); rg.Lo != 0 || rg.Hi != 1 {
		t.Fatalf("NodeRange(0) = %v", rg)
	}
}

// TestTrigOpStrings keeps the wire-visible op set printable.
func TestTrigOpStrings(t *testing.T) {
	want := map[TrigOp]string{
		TrigSet: "set", TrigFail: "fail", TrigSignal: "signal",
		TrigContribute: "contribute", TrigSupply: "supply", TrigWait: "wait",
		TrigOp(99): "op99",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Fatalf("TrigOp(%d).String() = %q, want %q", op, got, s)
		}
	}
}
