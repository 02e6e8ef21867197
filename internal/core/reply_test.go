package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// replyCounters reads the two px.reply.* metrics.
func replyCounters(r *Runtime) (stale, live float64) {
	snap := r.Metrics().Snapshot()
	return snap["px.reply.stale"], snap["px.reply.slots_live"]
}

// TestReplyTableRecyclesSlots: a table grows to the peak of outstanding
// replies and no further, every slot is taken exactly once, and a name is
// dead the moment its slot is — whether or not the slot has a new holder.
func TestReplyTableRecyclesSlots(t *testing.T) {
	var tab replyTable
	const node = 3
	f1, f2 := lco.NewFuture(), lco.NewFuture()
	s1, ok1 := tab.open(node, f1, time.Time{}, noDep)
	s2, ok2 := tab.open(node, f2, time.Time{}, 5)
	if !ok1 || !ok2 || s1 == s2 || tab.live() != 2 {
		t.Fatalf("open: %#x %v, %#x %v, %d live", s1, ok1, s2, ok2, tab.live())
	}
	if _, ok := tab.take(node+1, s1); ok {
		t.Fatal("a name minted by another node took a slot")
	}
	if _, ok := tab.take(node, s1+2<<replyGenBits); ok {
		t.Fatal("a name beyond the table took a slot")
	}
	if got, ok := tab.take(node, s1); !ok || got.fut != f1 {
		t.Fatalf("take = %+v, %v; want the first future", got, ok)
	}
	if _, ok := tab.take(node, s1); ok {
		t.Fatal("a spent name took its slot twice")
	}
	f3 := lco.NewFuture()
	s3, _ := tab.open(node, f3, time.Time{}, 5)
	if s3>>replyGenBits != s1>>replyGenBits || uint32(s3) != uint32(s1)+1 || len(tab.slots) != 2 {
		t.Fatalf("reopened %#x after %#x in a table of %d: want the same slot, next generation", s3, s1, len(tab.slots))
	}
	if _, ok := tab.take(node, s1); ok {
		t.Fatal("the previous holder's name took the recycled slot")
	}
	if lost := tab.takeNode(5); len(lost) != 2 || tab.live() != 0 {
		t.Fatalf("takeNode(5) = %d slots, %d still live; want both", len(lost), tab.live())
	}
	if _, ok := tab.take(node, s2); ok {
		t.Fatal("a slot failed by a death was taken again")
	}
}

// TestReplyNamesStayOutOfAGAS: a reply name is addressable but not
// registered, so the operations that act on registered names refuse it or
// leave it alone.
func TestReplyNamesStayOutOfAGAS(t *testing.T) {
	r := newTestRuntime(t, 2)
	reply, fut := r.openReply(0, r.LocalityGID(1), time.Time{})
	if reply.Kind != agas.KindReply || reply.Home != 0 {
		t.Fatalf("reply name %v, want a reply homed at 0", reply)
	}
	if err := r.Migrate(reply, 1); err == nil {
		t.Fatal("migration of a reply name accepted")
	}
	r.FreeObject(reply)
	if _, live := replyCounters(r); live != 1 {
		t.Fatalf("%v slots live after FreeObject on the name, want 1", live)
	}
	hits := r.AGAS().CacheHits.Load()
	if owner, gen, err := r.AGAS().Locate(reply); err != nil || owner != 0 || gen != 0 {
		t.Fatalf("Locate(reply) = %d, %d, %v; want its home at generation 0", owner, gen, err)
	}
	if got := r.AGAS().CacheHits.Load(); got != hits+1 {
		t.Fatalf("reply translation booked %d cache hits, want 1", got-hits)
	}
	if err := r.SetLCO(1, reply, int64(5)); err != nil {
		t.Fatal(err)
	}
	if v, err := fut.Get(); err != nil || v.(int64) != 5 {
		t.Fatalf("trigger on the reply name: %v, %v", v, err)
	}
	r.Wait()
	if stale, live := replyCounters(r); stale != 0 || live != 0 {
		t.Fatalf("stale=%v live=%v after one reply, want 0 and 0", stale, live)
	}
}

// TestUndecodableReplyFailsTheFuture: a reply spends its slot even when its
// value cannot be decoded, so the decode error must reach the waiter — no
// later reply can.
func TestUndecodableReplyFailsTheFuture(t *testing.T) {
	r := newTestRuntime(t, 2)
	reply, fut := r.openReply(0, r.LocalityGID(1), time.Time{})
	r.SendFrom(1, parcel.New(reply, ActionLCOSet, []byte{0xff}))
	if v, err := fut.Get(); err == nil {
		t.Fatalf("garbage reply resolved the future with %v", v)
	}
	r.Wait()
	if _, live := replyCounters(r); live != 0 {
		t.Fatalf("%v slots live after the reply", live)
	}
}

// TestCallFromAllocBudget pins what a split-phase call may allocate: the
// future and nothing else for a call with no value; for a value, also the
// action's own result box and the copy and box the receiving side's decode
// makes. Argument records, the reply parcel and the wait cost nothing.
func TestCallFromAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	r := newTestRuntime(t, 2)
	value := make([]byte, 64)
	r.MustRegisterAction("reply.value64", func(*Context, any, *parcel.Reader) (any, error) {
		return value, nil
	})
	obj := r.NewDataAt(1, struct{}{})
	for _, tc := range []struct {
		action string
		budget float64
	}{{ActionNop, 1}, {"reply.value64", 4}} {
		call := func() {
			if _, err := r.CallFrom(0, obj, tc.action, nil).Get(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			call() // warm the pools and the slot table
		}
		r.Wait()
		if allocs := testing.AllocsPerRun(1000, call); allocs > tc.budget {
			t.Errorf("CallFrom(%s).Get() allocates %.1f/op, budget %.0f", tc.action, allocs, tc.budget)
		} else {
			t.Logf("CallFrom(%s).Get(): %.1f allocs/op", tc.action, allocs)
		}
	}
}

// TestNodeLocalCallCostsOneTask: a reply to a call from this node resolves
// on the goroutine that routes it, so a node-local call runs one locality
// task, the callee's — whether the callee is on a neighbouring locality or
// on the caller's own.
func TestNodeLocalCallCostsOneTask(t *testing.T) {
	const calls = 1000
	for _, home := range []int{1, 0} {
		r := newTestRuntime(t, 2)
		obj := r.NewDataAt(home, struct{}{})
		futs := make([]*lco.Future, calls)
		for i := range futs {
			futs[i] = r.CallFrom(0, obj, ActionNop, nil)
		}
		r.Wait()
		for _, f := range futs {
			if _, err := f.Get(); err != nil {
				t.Fatal(err)
			}
		}
		if stale, live := replyCounters(r); stale != 0 || live != 0 {
			t.Fatalf("stale=%v live=%v, want 0 and 0", stale, live)
		}
		if errs := r.Errors(); len(errs) != 0 {
			t.Fatalf("runtime errors: %v", errs)
		}
		// A task is counted just after it releases the work unit Wait
		// watches; the counts settle once Shutdown has joined the workers.
		r.Shutdown()
		if got := r.loc(0).TasksRun() + r.loc(1).TasksRun(); got != calls {
			t.Fatalf("%d calls to L%d from L0 ran %d tasks, want %d", calls, home, got, calls)
		}
	}
}

// TestRemoteReplyRunsOnAWorker: a reply read off the wire still takes a
// task on the caller's locality. Its callbacks may block on a send, which a
// read goroutine must not do, so none of them runs under the frame handler
// or the fabric's delivery loop.
func TestRemoteReplyRunsOnAWorker(t *testing.T) {
	m, obj := startLedgerMachine(t)
	// Hold back node 1's reply until the callback is registered.
	m.wires[1].set(wirePark, fParcel, fParcelI)
	parked := make(chan struct{}, 1)
	m.wires[1].observe(func(_ byte, fate int) {
		if fate == wirePark {
			parked <- struct{}{}
		}
	})
	fut := m.rts[0].CallFrom(0, obj, "intern.echo", nil)
	<-parked
	m.wires[1].observe(nil)
	stack := make(chan []string, 1)
	fut.OnReady(func(any, error) {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		var fns []string
		for {
			f, more := frames.Next()
			fns = append(fns, f.Function)
			if !more {
				break
			}
		}
		stack <- fns
	})
	m.wires[1].release(t, nil)
	m.wantEcho(t, fut)
	fns := <-stack
	onWorker := false
	for _, fn := range fns {
		if strings.HasSuffix(fn, "(*distState).onFrame") || strings.HasSuffix(fn, "(*inprocEndpoint).deliver") {
			t.Fatalf("the reply's callback ran on the read goroutine:\n%s", strings.Join(fns, "\n"))
		}
		onWorker = onWorker || strings.HasSuffix(fn, "locality.(*Locality).runTask")
	}
	if !onWorker {
		t.Fatalf("the reply's callback ran outside a locality task:\n%s", strings.Join(fns, "\n"))
	}
	m.stop(t)
}

// TestSLOWIsSampled: node-local calls still feed SLOW's Latency and Overhead,
// but only a sample of them does.
func TestSLOWIsSampled(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	for i := 0; i < 6400; i++ {
		if _, err := r.CallFrom(0, obj, ActionNop, nil).Get(); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	s := r.SLOW()
	sent := s.ParcelsSent.Value() + s.ParcelsLocal.Value()
	lat, ovh := s.Latency.Count(), s.Overhead.Count()
	if lat == 0 || ovh == 0 || 32*lat > sent || 32*ovh > sent {
		t.Fatalf("%d parcels booked %d latency and %d overhead samples; want each in (0, 1/32 of the parcels]", sent, lat, ovh)
	}
	if line := s.String(); strings.Contains(line, " lat(mean)=0 ") || strings.Contains(line, " ovh(mean)=0 ") {
		t.Fatalf("SLOW prints a zero latency or overhead mean: %s", line)
	}
	t.Logf("%d parcels: %d latency, %d overhead samples", sent, lat, ovh)
}

// TestLedgerReplayedReplyMissesRecycledSlot: a reply frame replayed after
// its slot was handed to a new holder is dropped and counted, and the new
// holder's future hears nothing of it.
func TestLedgerReplayedReplyMissesRecycledSlot(t *testing.T) {
	m, obj := startLedgerMachine(t)
	// Hold back node 1's reply, then let it through, keeping a copy.
	m.wires[1].set(wirePark, fParcel, fParcelI)
	parked := make(chan struct{}, 1)
	m.wires[1].observe(func(_ byte, fate int) {
		if fate == wirePark {
			parked <- struct{}{}
		}
	})
	first := m.rts[0].CallFrom(0, obj, "intern.echo", nil)
	<-parked
	m.wires[1].observe(nil)
	var reply []byte
	m.wires[1].release(t, func(frame []byte) []byte {
		reply = append([]byte(nil), frame...)
		return frame
	})
	m.wantEcho(t, first)
	m.wait(t)

	// The freed slot goes to a wait on an LCO nothing sets yet.
	tab := &m.rts[0].replies[0]
	pending := m.rts[0].NewDistFutureAt(0)
	second := m.rts[0].WaitLCO(0, pending)
	m.wait(t)
	if len(tab.slots) != 1 || tab.live() != 1 {
		t.Fatalf("table has %d slots, %d live; want the one slot recycled", len(tab.slots), tab.live())
	}

	// Replay, booked as a send so the ledger still balances: wait returns
	// once node 0 has received the frame and finished with it.
	m.rts[1].dist.peer(0).sent.Add(1)
	if err := m.wires[1].Transport.Send(0, reply); err != nil {
		t.Fatal(err)
	}
	m.wait(t)
	if stale, live := replyCounters(m.rts[0]); stale != 1 || live != 1 {
		t.Fatalf("after the replay: stale=%v live=%v, want 1 and 1", stale, live)
	}
	if v, err, ok := second.TryGet(); ok {
		t.Fatalf("the replayed reply resolved the slot's new holder: %v, %v", v, err)
	}
	if errs := m.rts[0].Errors(); len(errs) != 0 {
		t.Fatalf("the stale reply was recorded as an error: %v", errs)
	}

	if err := m.rts[0].SetLCO(0, pending, int64(9)); err != nil {
		t.Fatal(err)
	}
	if v, err := second.Get(); err != nil || v.(int64) != 9 {
		t.Fatalf("the new holder: %v, %v; want 9", v, err)
	}
	m.stop(t)
}

// TestConcurrentCallsRaceNodeDeath: 1024 callers, each with its own getter,
// race a death verdict on the node they call. Every future resolves with
// the answer or fails with the node-lost verdict, exactly once, and none
// hangs.
func TestConcurrentCallsRaceNodeDeath(t *testing.T) {
	m, obj := startLedgerMachine(t)
	const callers = 1024
	var issued, resolved, answered, lost atomic.Int64
	var wg sync.WaitGroup
	kill := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fut := m.rts[0].CallFrom(0, obj, "intern.echo", nil)
			fut.OnReady(func(any, error) { resolved.Add(1) })
			if issued.Add(1) == callers/2 {
				close(kill)
			}
			switch v, err := fut.Get(); {
			case err == nil && v.(int64) == 42:
				answered.Add(1)
			case IsNodeLost(err):
				lost.Add(1)
			default:
				t.Errorf("call ended with %v, %v: want 42 or the node-lost verdict", v, err)
			}
		}()
	}
	<-kill
	m.rts[0].dist.mb.declareDead(1, "reply race test")
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d calls hang after the death verdict (%d answered, %d lost)",
			callers-answered.Load()-lost.Load(), callers, answered.Load(), lost.Load())
	}
	m.rts[0].Wait()
	if resolved.Load() != callers || answered.Load()+lost.Load() != callers {
		t.Fatalf("%d resolutions, %d answered + %d lost; want %d each way", resolved.Load(), answered.Load(), lost.Load(), callers)
	}
	if _, live := replyCounters(m.rts[0]); live != 0 {
		t.Fatalf("%v slots still live", live)
	}
	t.Logf("%d answered, %d lost", answered.Load(), lost.Load())
	m.rts[1].Terminate()
	m.rts[0].Shutdown()
}

// TestNewFutureAtLeavesNoObject: a named future is a reply slot, so a
// continuation chain ending at one leaves nothing behind — no object in
// its locality's store, no name in the directory, no live slot — once the
// chain has resolved it.
func TestNewFutureAtLeavesNoObject(t *testing.T) {
	r := newTestRuntime(t, 3)
	r.MustRegisterAction("leak.add1", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
		v, err := decodeValueArg(args)
		if err != nil {
			return nil, err
		}
		return v.(int64) + 1, nil
	})
	obj1, obj2 := r.NewDataAt(1, "stage1"), r.NewDataAt(2, "stage2")
	objects, names := r.loc(0).Store().Len(), r.AGAS().DirLen(0)
	const chains = 1000
	for i := 0; i < chains; i++ {
		fgid, fut := r.NewFutureAt(0)
		p, err := parcel.AcquireValue(obj1, "leak.add1", int64(i),
			parcel.Continuation{Target: obj2, Action: "leak.add1"},
			parcel.Continuation{Target: fgid, Action: ActionLCOSet})
		if err != nil {
			t.Fatal(err)
		}
		r.SendFrom(0, p)
		if v, err := fut.Get(); err != nil || v.(int64) != int64(i+2) {
			t.Fatalf("chain %d resolved %v, %v; want %d", i, v, err, i+2)
		}
	}
	r.Wait()
	if got := r.loc(0).Store().Len(); got != objects {
		t.Fatalf("locality 0 holds %d objects after %d chains, want %d", got, chains, objects)
	}
	if got := r.AGAS().DirLen(0); got != names {
		t.Fatalf("locality 0's directory holds %d names after %d chains, want %d", got, chains, names)
	}
	if stale, live := replyCounters(r); stale != 0 || live != 0 {
		t.Fatalf("stale=%v live=%v after %d chains, want 0 and 0", stale, live, chains)
	}
}
