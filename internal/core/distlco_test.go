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

// wantOneShort checks that the DistLCO g, hosted at loc, is one trigger
// short of resolving and, when acc is non-nil, holds exactly acc: sized one
// past the triggers sent, it proves each of them was applied exactly once.
func wantOneShort(t *testing.T, r *Runtime, loc int, g agas.GID, acc any) {
	t.Helper()
	obj, ok := r.LocalObject(loc, g)
	if !ok {
		t.Fatalf("%v not hosted at L%d", g, loc)
	}
	l := obj.(*DistLCO)
	v, _, resolved := l.Resolved()
	if l.Pending() != 1 || resolved || (acc != nil && v != acc) {
		t.Fatalf("%v: %d pending, resolved=%v, accumulator %v; want 1, false and %v", g, l.Pending(), resolved, v, acc)
	}
}

// TestDistLCOLocalDuplicationIdempotence floods distributed LCOs with
// trigger parcels between two localities of one node: a gate and a reduce
// sized one past the triggers sent hold exactly one short, with the exact
// sum of n distinct values, and resolve on the last trigger.
func TestDistLCOLocalDuplicationIdempotence(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()

	const n = 100
	gate := r.NewDistGateAt(1, n+1)
	wg := r.WaitLCO(0, gate)
	red := r.NewDistReduceAt(1, n+1, ReduceSum, int64(0))
	wr := r.WaitLCO(0, red)
	for i := 1; i <= n; i++ {
		r.SignalLCO(0, gate)
		if err := r.ContributeLCO(0, red, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	wantOneShort(t, r, 1, gate, nil)
	wantOneShort(t, r, 1, red, int64(n*(n+1)/2))
	r.SignalLCO(0, gate)
	if err := r.ContributeLCO(0, red, int64(n+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("gate: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != (n+1)*(n+2)/2 {
		t.Fatalf("reduce = %v, %v; want %d", v, err, (n+1)*(n+2)/2)
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// TestDistLCORemoteDuplicationIdempotence runs the same storm across a
// 3-node loopback fabric: each trigger starts as an intra-node parcel
// whose continuation signals or contributes to the LCOs on node 0, so it
// crosses one node-local hop and then the wire.
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
			Register: func(r *Runtime) {
				r.MustRegisterAction("test.echo", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
					v := args.Int64()
					return v, args.Err()
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
	gate := rts[0].NewDistGateAt(0, 2*perNode+1)
	red := rts[0].NewDistReduceAt(0, 2*perNode+1, ReduceSum, int64(0))
	wg := rts[0].WaitLCO(0, gate)
	wr := rts[0].WaitLCO(0, red)
	var sum int64
	for n := 1; n <= 2; n++ {
		lo := ranges[n].Lo
		hop := rts[n].NewDataAt(lo+1, struct{}{})
		for i := 0; i < perNode; i++ {
			v := int64(n*1000 + i)
			sum += v
			rts[n].SendFrom(lo, parcel.New(hop, "test.echo", parcel.NewArgs().Int64(v).Encode(),
				parcel.Continuation{Target: gate, Action: ActionLCOSignal}))
			rts[n].SendFrom(lo, parcel.New(hop, "test.echo", parcel.NewArgs().Int64(v).Encode(),
				parcel.Continuation{Target: red, Action: ActionLCOContribute}))
		}
	}
	rts[0].Wait()
	wantOneShort(t, rts[0], 0, gate, nil)
	wantOneShort(t, rts[0], 0, red, sum)
	rts[1].SignalLCO(2, gate)
	if err := rts[2].ContributeLCO(4, red, int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := wg.Get(); err != nil {
		t.Fatalf("remote gate: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != sum+1 {
		t.Fatalf("remote reduce = %v, %v; want %d", v, err, sum+1)
	}
	rts[0].Wait()
	for i, r := range rts {
		if errs := r.Errors(); len(errs) != 0 {
			t.Fatalf("node %d recorded errors: %v", i, errs)
		}
	}
}

// TestDistLCOMidMigrationIdempotence hammers a distributed gate with
// triggers while the gate migrates back and forth between localities:
// triggers park at the migration fence and chase the forwarding pointer,
// and must still count exactly once each.
func TestDistLCOMidMigrationIdempotence(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()

	const n = 120
	gate := r.NewDistGateAt(0, n+1)
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
	r.Wait()
	wantOneShort(t, r, 0, gate, nil) // the sixth move brought it home
	r.SignalLCO(1, gate)
	if _, err := done.Get(); err != nil {
		t.Fatalf("gate under migration: %v", err)
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

// TestDistLCOCodecSizeIsState: a reduce's migration encoding carries its
// state, not its history — it is as long after 1,000 applied contributions
// as after one.
func TestDistLCOCodecSizeIsState(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	red := r.NewDistReduceAt(1, 2000, ReduceSum, int64(0))
	encoded := func() int {
		r.Wait()
		obj, _ := r.LocalObject(1, red)
		raw, err := parcel.EncodeAny(obj)
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	if err := r.ContributeLCO(0, red, int64(1)); err != nil {
		t.Fatal(err)
	}
	one := encoded()
	for i := 0; i < 999; i++ {
		if err := r.ContributeLCO(0, red, int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if thousand := encoded(); thousand != one {
		t.Fatalf("encoding is %d bytes after 1 contribution and %d after 1,000", one, thousand)
	}
}

// TestDistLCOContinuationDuplicationIdempotence: continuation-borne
// triggers (px.lco.signal/contribute naming a DistLCO) are applied once
// each, like any trigger — a gate and a reduce sized one past them hold
// one short, with the exact sum of n distinct values.
func TestDistLCOContinuationDuplicationIdempotence(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	r.MustRegisterAction("test.echo", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
		v := args.Int64()
		return v, args.Err()
	})
	const n = 60
	obj := r.NewDataAt(1, struct{}{})
	gate := r.NewDistGateAt(0, n+1)
	red := r.NewDistReduceAt(0, n+1, ReduceSum, int64(0))
	wg := r.WaitLCO(0, gate)
	wr := r.WaitLCO(0, red)
	send := func(i int) {
		args := parcel.NewArgs().Int64(int64(i)).Encode()
		r.SendFrom(0, parcel.New(obj, "test.echo", args,
			parcel.Continuation{Target: gate, Action: ActionLCOSignal}))
		r.SendFrom(0, parcel.New(obj, "test.echo", args,
			parcel.Continuation{Target: red, Action: ActionLCOContribute}))
	}
	for i := 1; i <= n; i++ {
		send(i)
	}
	r.Wait()
	wantOneShort(t, r, 0, gate, nil)
	wantOneShort(t, r, 0, red, int64(n*(n+1)/2))
	send(n + 1)
	if _, err := wg.Get(); err != nil {
		t.Fatalf("gate via continuations: %v", err)
	}
	if v, err := wr.Get(); err != nil || v.(int64) != (n+1)*(n+2)/2 {
		t.Fatalf("reduce via continuations = %v, %v; want %d", v, err, (n+1)*(n+2)/2)
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
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
// trigger arriving after its one-shot target was consumed and freed — one
// that raced the Free on another lane — is dropped silently instead of
// polluting the error log.
func TestDistLCOLateTriggerToFreedTarget(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer r.Shutdown()
	fgid := r.NewDistFutureAt(0)
	fut := r.WaitLCO(0, fgid)
	if err := r.triggerValue(1, fgid, TrigSet, 0, int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	r.FreeObject(fgid)
	// The straggler: a second set, target gone.
	if err := r.triggerValue(1, fgid, TrigSet, 0, int64(1)); err != nil {
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
