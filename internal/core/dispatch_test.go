package core

// The dispatch-once oracle. Every parcel a runtime hands to its action is
// recorded by (parcel ID, continuation depth), and a key seen twice fails
// the test. A continuation inherits its chain's ID one level shallower, and
// a failure delivered to a continuation takes the place of the step it
// replaces, so on a machine that dispatches each parcel once no key
// repeats — whatever crosses the wire, migrates, or dies on the way.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
)

type dispatchKey struct {
	id    uint64
	depth int
}

type dispatchOracle struct {
	mu      sync.Mutex
	seen    map[dispatchKey]string
	repeats []string
}

// watch hooks the oracle into every runtime of a machine.
func (o *dispatchOracle) watch(rts []*Runtime) {
	o.seen = make(map[dispatchKey]string)
	record := o.record
	for _, r := range rts {
		r.dispatched.Store(&record)
	}
}

func (o *dispatchOracle) record(p *parcel.Parcel) {
	k := dispatchKey{p.ID, len(p.Cont)}
	o.mu.Lock()
	defer o.mu.Unlock()
	if first, ok := o.seen[k]; ok {
		o.repeats = append(o.repeats, fmt.Sprintf("%s, first dispatched as %s", p, first))
		return
	}
	o.seen[k] = p.String()
}

// check fails the test on any repeated dispatch, and on a run that
// dispatched too little to prove anything.
func (o *dispatchOracle) check(t *testing.T, atLeast int) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.repeats) > 0 {
		t.Fatalf("%d parcels dispatched twice, e.g. %s", len(o.repeats), o.repeats[0])
	}
	if len(o.seen) < atLeast {
		t.Fatalf("the oracle saw %d dispatches, want at least %d", len(o.seen), atLeast)
	}
}

// onceRanges is the 3-node machine: two localities per node.
var onceRanges = []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}

// onceShapes are the transports the oracle runs over: the in-process
// fabric, loopback TCP with one lane, and TCP with four lanes per peer
// (over the same-host fabric when the platform has it). Each builds the
// three endpoints behind fault injectors; every one can grow, which
// engages membership.
var onceShapes = []struct {
	name  string
	wires func(t *testing.T) []*transport.Faulty
}{
	{"fabric", func(*testing.T) []*transport.Faulty {
		fab := transport.NewFabric(3)
		out := make([]*transport.Faulty, 3)
		for i := range out {
			out[i] = &transport.Faulty{Transport: fab.Node(i)}
		}
		return out
	}},
	{"tcp-1lane", func(t *testing.T) []*transport.Faulty { return onceTCP(t, 1) }},
	{"tcp-4lanes", func(t *testing.T) []*transport.Faulty { return onceTCP(t, 4) }},
}

func onceTCP(t *testing.T, lanes int) []*transport.Faulty {
	ranges := make([][2]int, len(onceRanges))
	for i, rg := range onceRanges {
		ranges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tcps := make([]*transport.TCP, 3)
	addrs := make([]string, 3)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 3), Ranges: ranges,
			Lanes: lanes, DisableSameHost: lanes == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i], addrs[i] = tr, tr.Addr().String()
	}
	out := make([]*transport.Faulty, 3)
	for i, tr := range tcps {
		tr.SetPeers(addrs)
		out[i] = &transport.Faulty{Transport: tr}
	}
	return out
}

// startOnceMachine starts the 3-node machine over wires, each behind a
// reader guard, its actions registered and the oracle watching. once.echo answers its value,
// once.add its value plus one (both count their runs in hits), and
// once.bump increments a []int64 counter object.
func startOnceMachine(t *testing.T, wires []*transport.Faulty, o *dispatchOracle, hits *atomic.Int64) []*Runtime {
	register := func(r *Runtime) {
		value := func(_ *Context, _ any, args *parcel.Reader) (any, error) {
			hits.Add(1)
			v, err := decodeValueArg(args)
			if err != nil {
				return nil, err
			}
			return v.(int64), nil
		}
		r.MustRegisterAction("once.echo", value)
		r.MustRegisterAction("once.add", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
			v, err := value(ctx, target, args)
			if err != nil {
				return nil, err
			}
			return v.(int64) + 1, nil
		})
		r.MustRegisterAction("once.bump", func(_ *Context, target any, _ *parcel.Reader) (any, error) {
			return atomic.AddInt64(&target.([]int64)[0], 1), nil
		})
	}
	rts := make([]*Runtime, 3)
	for i := range rts {
		rts[i] = New(Config{
			Transport:          guardReader(t, wires[i]),
			NodeID:             i,
			NodeLocalities:     onceRanges,
			WorkersPerLocality: 2,
			Membership:         MembershipConfig{HeartbeatInterval: 10 * time.Millisecond, DeadAfter: 250 * time.Millisecond},
			Register:           register,
		})
	}
	o.watch(rts)
	return rts
}

// valueArgs is the argument record once.* actions read: one value, as a
// continuation carries it.
func valueArgs(v int64) []byte {
	a := parcel.NewArgs()
	_ = a.Value(v) // an int64 always encodes
	return a.Encode()
}

// TestDispatchedOnce proves, rather than guards against, exactly-once
// delivery: over each transport shape a 3-node machine runs cross-node
// call storms, continuation chains, DistLCO triggers and subscriptions,
// and cross-node migrations under load, then a second machine loses a
// link and a node mid-storm — and no parcel is dispatched twice.
func TestDispatchedOnce(t *testing.T) {
	for _, shape := range onceShapes {
		t.Run(shape.name, func(t *testing.T) {
			var o dispatchOracle
			var hits atomic.Int64
			rts := startOnceMachine(t, shape.wires(t), &o, &hits)
			calls := onceCallStorm(t, rts)
			chains := onceChainsAndTriggers(t, rts)
			onceMigrationUnderLoad(t, rts)
			rts[0].Wait()
			if want := int64(calls + 3*chains); hits.Load() != want {
				t.Fatalf("once.* actions ran %d times, want %d", hits.Load(), want)
			}
			for i, r := range rts {
				r.Shutdown()
				if errs := r.Errors(); len(errs) != 0 {
					t.Fatalf("node %d recorded errors: %v", i, errs)
				}
			}
			o.check(t, calls)

			var chaos dispatchOracle
			onceKillAndPartition(t, shape.wires(t), &chaos)
			chaos.check(t, 1)
		})
	}
}

// TestLocalParcelsDispatchedExactlyOnce: node-local parcels are delivered
// exactly once, so a count of deliveries and a gate sized one past its
// signals both come out exact — any repeated dispatch would show.
func TestLocalParcelsDispatchedExactlyOnce(t *testing.T) {
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

	// A gate sized for n+1 holds after n signals, then resolves on the
	// last one.
	ggid := r.NewDistGateAt(0, n+1)
	for i := 0; i < n; i++ {
		r.SendFrom(1, parcel.New(ggid, ActionLCOSignal, nil))
	}
	r.Wait()
	gate, _ := r.LocalObject(0, ggid)
	done := r.WaitLCO(1, ggid)
	r.Wait()
	if left := gate.(*DistLCO).Pending(); left != 1 || done.Resolved() {
		t.Fatalf("after %d signals: %d pending, resolved %v; want 1 and false", n, left, done.Resolved())
	}
	r.SendFrom(1, parcel.New(ggid, ActionLCOSignal, nil))
	r.Wait()
	if _, err := done.Get(); err != nil {
		t.Fatalf("gate resolved with %v", err)
	}
}

// TestDuplicatedFutureSetReportsSecondWrite: a named future is a reply
// slot, so the first set resolves it and a second set finds the slot spent:
// it is counted as a stale reply, the first value stands, and nothing is
// recorded as a runtime error.
func TestDuplicatedFutureSetReportsSecondWrite(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 1})
	defer r.Shutdown()
	fgid, fut := r.NewFutureAt(1)
	for _, x := range []int64{9, 10} {
		val, _ := parcel.EncodeAny(x)
		r.SendFrom(0, parcel.New(fgid, ActionLCOSet, parcel.NewArgs().Bytes(val).Encode()))
	}
	r.Wait()
	v, err := fut.Get()
	if err != nil || v.(int64) != 9 {
		t.Fatalf("first set lost: %v %v", v, err)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("second set recorded %v, want no runtime error", errs)
	}
	if stale, live := replyCounters(r); stale != 1 || live != 0 {
		t.Fatalf("stale=%v live=%v after two sets, want 1 and 0", stale, live)
	}
}

// onceCallStorm: every locality of every node calls an object on every
// locality, concurrently, and each call answers exactly its own value.
// It returns the number of calls.
func onceCallStorm(t *testing.T, rts []*Runtime) int {
	const perPair = 20
	objs := make([]agas.GID, 6)
	for loc := range objs {
		objs[loc] = rts[loc/2].NewDataAt(loc, struct{}{})
	}
	var wg sync.WaitGroup
	for src := 0; src < 6; src++ {
		wg.Add(1)
		go func(r *Runtime, src int) {
			defer wg.Done()
			for i := 0; i < perPair; i++ {
				for dst, obj := range objs {
					want := int64(src<<16 | dst<<8 | i)
					if v, err := r.CallFrom(src, obj, "once.echo", valueArgs(want)).Get(); err != nil || v.(int64) != want {
						t.Errorf("call L%d -> L%d: %v, %v; want %d", src, dst, v, err, want)
						return
					}
				}
			}
		}(rts[src/2], src)
	}
	wg.Wait()
	return 6 * 6 * perPair
}

// onceChainsAndTriggers: from every node, continuation chains hop across
// the other two nodes and back, adding one per hop, and contribute to a
// reduce on node 0; every node also signals a gate on node 1 directly, and
// every node subscribes to both. Sized one past what is sent, both hold
// one short with the exact sum before the last trigger resolves them. It
// returns the number of chains.
func onceChainsAndTriggers(t *testing.T, rts []*Runtime) int {
	const perNode = 30
	total := 3 * perNode
	red := rts[0].NewDistReduceAt(0, total+1, ReduceSum, int64(0))
	gate := rts[1].NewDistGateAt(2, total+1)
	objs := make([]agas.GID, 3)
	for n := range objs {
		objs[n] = rts[n].NewDataAt(2*n+1, struct{}{})
	}
	var waits []interface{ Get() (any, error) }
	for n, r := range rts {
		waits = append(waits, r.WaitLCO(2*n, red), r.WaitLCO(2*n+1, gate))
	}
	var sum int64
	for n := range rts {
		for i := 0; i < perNode; i++ {
			v := int64(n*1000 + i)
			sum += v + 3
		}
	}
	var wg sync.WaitGroup
	for n, r := range rts {
		wg.Add(1)
		go func(n int, r *Runtime) {
			defer wg.Done()
			src := 2 * n
			for i := 0; i < perNode; i++ {
				r.SendFrom(src, parcel.New(objs[(n+1)%3], "once.add", valueArgs(int64(n*1000+i)),
					parcel.Continuation{Target: objs[(n+2)%3], Action: "once.add"},
					parcel.Continuation{Target: objs[n], Action: "once.add"},
					parcel.Continuation{Target: red, Action: ActionLCOContribute}))
				r.SignalLCO(src+i%2, gate)
			}
		}(n, r)
	}
	wg.Wait()
	rts[0].Wait()
	wantOneShort(t, rts[0], 0, red, sum)
	wantOneShort(t, rts[1], 2, gate, nil)
	if err := rts[2].ContributeLCO(4, red, int64(1)); err != nil {
		t.Fatal(err)
	}
	rts[2].SignalLCO(5, gate)
	for i, w := range waits {
		v, err := w.Get()
		if err != nil || (i%2 == 0 && v.(int64) != sum+1) {
			t.Fatalf("wait %d: %v, %v; want the reduce at %d and the gate open", i, v, err, sum+1)
		}
	}
	return total
}

// onceMigrationUnderLoad: every node bumps one counter while it migrates
// node 0 -> 1 -> 2 -> 0, each move initiated on the current owner. The
// count comes out exact.
func onceMigrationUnderLoad(t *testing.T, rts []*Runtime) {
	const perNode = 60
	obj := rts[0].NewDataAt(0, []int64{0})
	var wg sync.WaitGroup
	for n, r := range rts {
		wg.Add(1)
		go func(r *Runtime, src int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				if _, err := r.CallFrom(src, obj, "once.bump", nil).Get(); err != nil {
					t.Errorf("bump from L%d: %v", src, err)
					return
				}
			}
		}(r, 2*n+1)
	}
	for _, mv := range []struct{ owner, to int }{{0, 2}, {1, 4}, {2, 1}} {
		time.Sleep(2 * time.Millisecond)
		if err := rts[mv.owner].Migrate(obj, mv.to); err != nil {
			t.Fatalf("migrate to L%d: %v", mv.to, err)
		}
	}
	wg.Wait()
	rts[0].Wait()
	v, ok := rts[0].LocalObject(1, obj)
	if !ok {
		t.Fatal("counter not at its final home, L1")
	}
	if got := atomic.LoadInt64(&v.([]int64)[0]); got != 3*perNode {
		t.Fatalf("counter = %d, want %d", got, 3*perNode)
	}
}

// onceKillAndPartition: nodes 0 and 1 storm calls at every locality while
// node 2 first loses its link to node 1 and then goes mute. Every call
// answers, fails with the node-lost verdict, or — when a survivor that had
// not yet heard of the death forwarded it into the dead node — hears
// nothing; the survivors declare node 2 dead and quiesce.
func onceKillAndPartition(t *testing.T, wires []*transport.Faulty, o *dispatchOracle) {
	wires[2].CutPeer, wires[2].CutAfter, wires[2].KillAfter = 1, 150, 400
	var hits atomic.Int64
	rts := startOnceMachine(t, wires, o, &hits)
	// A detector judges only a peer it has heard beat: every node hears
	// each of its peers beat a few times before anything goes quiet.
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range rts {
		for n := range rts {
			for n != r.NodeID() && r.dist.peer(n).detector().Samples() < 3 {
				if time.Now().After(deadline) {
					t.Fatalf("node %d never heard node %d beat", r.NodeID(), n)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	objs := make([]agas.GID, 6)
	for loc := range objs {
		objs[loc] = rts[loc/2].NewDataAt(loc, struct{}{})
	}
	var answered, lost, unanswered atomic.Int64
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(r *Runtime, src int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					want := int64(i)
					fut := r.CallFrom(src, objs[i%6], "once.echo", valueArgs(want))
					select {
					case <-fut.Done():
					case <-time.After(3 * time.Second):
						unanswered.Add(1)
						continue
					}
					switch v, err := fut.Get(); {
					case err == nil && v.(int64) == want:
						answered.Add(1)
					case IsNodeLost(err):
						lost.Add(1)
					default:
						t.Errorf("call from L%d: %v, %v; want %d or the node-lost verdict", src, v, err, want)
						return
					}
				}
			}(rts[src/2], src)
		}
	}
	wg.Wait()
	if wires[2].Silenced() == 0 {
		t.Fatal("the kill never armed: the storm proved nothing")
	}
	for _, r := range rts[:2] {
		deadline = time.Now().Add(10 * time.Second)
		for r.Members()[2].Alive {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never declared node 2 dead", r.NodeID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rts[0].Wait()
	rts[1].Wait()
	t.Logf("%d calls answered, %d lost with node 2, %d unanswered", answered.Load(), lost.Load(), unanswered.Load())
	rts[2].Terminate()
	rts[0].Shutdown()
	rts[1].Shutdown()
}

// decodeValueArg reads the single value a continuation parcel carries (see
// parcel.AcquireValue), decoding the record where it lies in args.
func decodeValueArg(args *parcel.Reader) (any, error) {
	raw := args.BytesAliased()
	if err := args.Err(); err != nil {
		return nil, err
	}
	return parcel.DecodeAny(raw)
}
