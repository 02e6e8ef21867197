package core

// Direct dispatch under test. The reader rule — a transport read goroutine
// never waits on a lane — is checked structurally: every node's wire sits
// behind a readerGuard, whose SendLane fails the test when
// (*distState).onFrame is on its caller's stack. The dispatch-once oracle
// and the ledger machine run behind it too (startOnceMachine,
// startLedgerMachine), so TestDispatchedOnce and TestLedger* check the rule
// over every shape they drive.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// readerGuard wraps one node's wire. Its SendLane, which may wait for room
// on a lane, fails the test when a read goroutine calls it. While full is
// set its TrySendLane refuses every frame, as a lane at its bound does,
// and counts the refusals.
type readerGuard struct {
	*transport.Faulty
	t        testing.TB
	full     atomic.Bool
	refused  atomic.Int64
	violated atomic.Bool // reported once
}

func guardReader(t testing.TB, w *transport.Faulty) *readerGuard {
	return &readerGuard{Faulty: w, t: t}
}

func (g *readerGuard) SendLane(node, lane int, frame []byte) error {
	if stack, ok := readerStack(); ok && g.violated.CompareAndSwap(false, true) {
		g.t.Errorf("a read goroutine called the waiting SendLane:\n%s", stack)
	}
	return g.Faulty.SendLane(node, lane, frame)
}

func (g *readerGuard) TrySendLane(node, lane int, frame []byte) error {
	if g.full.Load() {
		g.refused.Add(1)
		return transport.ErrLaneFull
	}
	return g.Faulty.TrySendLane(node, lane, frame)
}

// readerStack reports whether the caller runs under the runtime's frame
// handler, and its stack if so.
func readerStack() (string, bool) {
	stack := callerStack()
	return stack, strings.Contains(stack+"\n", "(*distState).onFrame\n")
}

func onReader() bool {
	_, ok := readerStack()
	return ok
}

// directShard is the direct-KV tests' shard: int64 values behind a lock.
type directShard struct {
	mu sync.Mutex
	m  map[string]int64
}

// directRig is the 3-node machine of the direct tests: every locality
// holds a directShard, every wire sits behind a guard, and the direct
// actions count the runs that happened on a read goroutine.
type directRig struct {
	rts      []*Runtime
	guards   []*readerGuard
	shards   []agas.GID // by locality
	onReader atomic.Int64
	spawned  atomic.Int64
	// The node-local tests' instruments: every run of an action on a
	// shard, the workers plain.hold holds until release closes, and the
	// stacks of probeSelf's runs.
	runs    atomic.Int64
	held    chan struct{}
	release chan struct{}
	mu      sync.Mutex
	stacks  []string
}

const (
	actDirectGet   = "direct.get"   // args {String key}; the value, 0 for a miss
	actDirectPut   = "direct.put"   // args {String key, Int64 v}; v
	actDirectProbe = "direct.probe" // args {Uint64 mode}; see probeAwait, probeSend, probeSelf
	actPlainGet    = "plain.get"    // direct.get, not marked direct
	actPlainHold   = "plain.hold"   // blocks its worker until rig.release closes
)

// direct.probe modes: Await a future nothing resolves; or Send, Call and
// Spawn once each, the first two at locality 0's shard; or record its
// stack and, the first time, Call itself with probeSelf again.
const (
	probeAwait = iota
	probeSend
	probeSelf
)

func kvGetArgs(key string) []byte { return parcel.NewArgs().String(key).Encode() }

func kvPutArgs(key string, v int64) []byte {
	return parcel.NewArgs().String(key).Int64(v).Encode()
}

// register installs the rig's actions on r. The KV actions and the probe
// are direct, and the KV actions sheddable.
func (rig *directRig) register(r *Runtime) {
	shard := func(target any) (*directShard, error) {
		rig.runs.Add(1)
		if onReader() {
			rig.onReader.Add(1)
		}
		sh, ok := target.(*directShard)
		if !ok {
			return nil, fmt.Errorf("direct action on %T", target)
		}
		return sh, nil
	}
	get := func(_ *Context, target any, args *parcel.Reader) (any, error) {
		sh, err := shard(target)
		key := args.String()
		if err == nil {
			err = args.Err()
		}
		if err != nil {
			return nil, err
		}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.m[key], nil
	}
	r.MustRegisterAction(actDirectGet, get)
	r.MustRegisterAction(actPlainGet, get)
	r.MustRegisterAction(actDirectPut, func(_ *Context, target any, args *parcel.Reader) (any, error) {
		sh, err := shard(target)
		key, v := args.String(), args.Int64()
		if err == nil {
			err = args.Err()
		}
		if err != nil {
			return nil, err
		}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.m[key] = v
		return v, nil
	})
	r.MustRegisterAction(actDirectProbe, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		if _, err := shard(target); err != nil {
			return nil, err
		}
		switch args.Uint64() {
		case probeAwait:
			_, err := ctx.Await(lco.NewFuture())
			return nil, err
		case probeSelf:
			rig.mu.Lock()
			first := len(rig.stacks) == 0
			rig.stacks = append(rig.stacks, callerStack())
			rig.mu.Unlock()
			if first {
				ctx.Call(rig.shards[ctx.Locality()], actDirectProbe, parcel.NewArgs().Uint64(probeSelf).Encode())
			}
			return nil, nil
		default:
			ctx.Send(parcel.New(rig.shards[0], actDirectPut, kvPutArgs("sent", 1)))
			ctx.Call(rig.shards[0], actDirectPut, kvPutArgs("called", 2))
			ctx.Spawn(func(*Context) { rig.spawned.Add(1) })
			return onReader(), nil
		}
	})
	r.MustRegisterAction(actPlainHold, func(*Context, any, *parcel.Reader) (any, error) {
		rig.held <- struct{}{}
		<-rig.release
		return nil, nil
	})
	r.MarkDirect(actDirectGet, actDirectPut, actDirectProbe)
	r.MarkSheddable(actDirectGet, actDirectPut)
}

// startDirectRig starts the machine over wires with every node's
// AdmitLimit at admit.
func startDirectRig(t *testing.T, wires []*transport.Faulty, admit int) *directRig {
	rig := &directRig{}
	rig.rts = make([]*Runtime, len(wires))
	rig.guards = make([]*readerGuard, len(wires))
	for i, w := range wires {
		rig.guards[i] = guardReader(t, w)
		rig.rts[i] = New(Config{
			Transport:          rig.guards[i],
			NodeID:             i,
			NodeLocalities:     onceRanges,
			WorkersPerLocality: 2,
			AdmitLimit:         admit,
			Register:           rig.register,
		})
	}
	rig.shards = make([]agas.GID, 6)
	for loc := range rig.shards {
		rig.shards[loc] = rig.rts[loc/2].NewDataAt(loc, &directShard{m: make(map[string]int64)})
	}
	return rig
}

// startLocalDirectRig starts the rig's actions on one node of two
// localities with two workers each, and no transport.
func startLocalDirectRig() *directRig {
	rig := &directRig{held: make(chan struct{}, 2), release: make(chan struct{})}
	r := New(Config{Localities: 2, WorkersPerLocality: 2, Register: rig.register})
	rig.rts = []*Runtime{r}
	for loc := 0; loc < 2; loc++ {
		rig.shards = append(rig.shards, r.NewDataAt(loc, &directShard{m: make(map[string]int64)}))
	}
	return rig
}

// callerStack returns the function names on the caller's stack, one a line.
func callerStack() string {
	pcs := make([]uintptr, 128)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	var fns []string
	for {
		f, more := frames.Next()
		fns = append(fns, f.Function)
		if !more {
			return strings.Join(fns, "\n")
		}
	}
}

// stop waits for the machine to quiesce and shuts it down, failing the
// test on any runtime error.
func (rig *directRig) stop(t *testing.T) {
	t.Helper()
	rig.rts[0].Wait()
	for i, r := range rig.rts {
		r.Shutdown()
		if errs := r.Errors(); len(errs) != 0 {
			t.Fatalf("node %d recorded errors: %v", i, errs)
		}
	}
}

// kvStorm has every locality of node 0 put and get n keys on every shard
// of node 1, concurrently, and returns how many requests were shed.
func (rig *directRig) kvStorm(t *testing.T, n int) (shed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for src := 0; src < 2; src++ {
		for _, dst := range []int{2, 3} {
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				futs := make([]*lco.Future, 0, 2*n)
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("k%d.%d", src, i)
					futs = append(futs,
						rig.rts[0].CallFrom(src, rig.shards[dst], actDirectPut, kvPutArgs(key, int64(i))),
						rig.rts[0].CallFrom(src, rig.shards[dst], actDirectGet, kvGetArgs(key)))
				}
				for _, f := range futs {
					v, err := f.Get()
					switch {
					case IsOverloaded(err):
						mu.Lock()
						shed++
						mu.Unlock()
					case err != nil:
						t.Errorf("request from L%d to L%d: %v", src, dst, err)
					case v.(int64) < 0 || v.(int64) >= int64(n):
						t.Errorf("request from L%d to L%d answered %v", src, dst, v)
					}
				}
			}(src, dst)
		}
	}
	wg.Wait()
	return shed
}

// TestReaderNeverWaitsOnALane runs the reader rule's guard over the ledger
// machine's calls in both directions and over direct-KV storms on every
// dispatch-oracle shape, with and without an admission limit: under a
// limit a shed verdict leaves from the read goroutine.
func TestReaderNeverWaitsOnALane(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		m, obj := startLedgerMachine(t)
		back := m.rts[0].NewDataAt(0, int64(42))
		for i := 0; i < 50; i++ {
			m.wantEcho(t, m.rts[0].CallFrom(1, obj, "intern.echo", nil))
			m.wantEcho(t, m.rts[1].CallFrom(3, back, "intern.echo", nil))
		}
		m.stop(t)
	})
	for _, shape := range onceShapes {
		for _, admit := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/admit=%d", shape.name, admit), func(t *testing.T) {
				rig := startDirectRig(t, shape.wires(t), admit)
				shed := rig.kvStorm(t, 100)
				switch {
				case admit == 0 && (shed != 0 || rig.onReader.Load() == 0):
					t.Fatalf("no admission limit: %d shed, %d direct runs on a reader; want 0 and some", shed, rig.onReader.Load())
				case admit > 0 && rig.onReader.Load() != 0:
					t.Fatalf("a sheddable action ran on a reader %d times under an admission limit", rig.onReader.Load())
				}
				rig.stop(t)
			})
		}
	}
}

// TestDirectReplyWhenLaneFull: with node 1's lanes refusing the reader as
// a lane at its bound does, every direct action's reply still arrives —
// sent again from a task, which may wait — the reader never called the
// waiting SendLane, and the ledger balances.
func TestDirectReplyWhenLaneFull(t *testing.T) {
	for _, shape := range onceShapes {
		t.Run(shape.name, func(t *testing.T) {
			rig := startDirectRig(t, shape.wires(t), 0)
			rig.guards[1].full.Store(true)
			if shed := rig.kvStorm(t, 20); shed != 0 {
				t.Fatalf("%d requests shed with no admission limit", shed)
			}
			if rig.guards[1].refused.Load() == 0 || rig.onReader.Load() == 0 {
				t.Fatalf("%d refusals, %d direct runs on a reader: the full lane was never met",
					rig.guards[1].refused.Load(), rig.onReader.Load())
			}
			rig.rts[0].Wait()
			for i, r := range rig.rts {
				if allZero, sent, recv, ok := r.dist.probe(); !ok || !allZero || sent != recv {
					t.Fatalf("probe from node %d: idle=%v sent=%d recv=%d ok=%v, want idle and balanced", i, allZero, sent, recv, ok)
				}
			}
			rig.stop(t)
		})
	}
}

// TestDirectActionContext: a direct action on a read goroutine may Send,
// Call and Spawn — each one happens — and its Await of an unresolved
// future fails with ErrDirectAwait, which fails the parcel.
func TestDirectActionContext(t *testing.T) {
	rig := startDirectRig(t, onceShapes[0].wires(t), 0)
	send := parcel.NewArgs().Uint64(probeSend).Encode()
	if v, err := rig.rts[0].CallFrom(0, rig.shards[2], actDirectProbe, send).Get(); err != nil || v != true {
		t.Fatalf("probe: %v, %v; want it run on the reader", v, err)
	}
	rig.rts[0].Wait()
	sh, _ := rig.rts[0].LocalObject(0, rig.shards[0])
	if m := sh.(*directShard).m; m["sent"] != 1 || m["called"] != 2 || rig.spawned.Load() != 1 {
		t.Fatalf("from the reader: sent %d, called %d, spawned %d; want 1, 2, 1", m["sent"], m["called"], rig.spawned.Load())
	}
	await := parcel.NewArgs().Uint64(probeAwait).Encode()
	_, err := rig.rts[0].CallFrom(0, rig.shards[2], actDirectProbe, await).Get()
	if err == nil || !strings.Contains(err.Error(), ErrDirectAwait.Error()) {
		t.Fatalf("Await on the reader: %v, want %v", err, ErrDirectAwait)
	}
	rig.stop(t)
}

// TestDirectActionParksAtFence: a direct action for an object whose fence
// is closed parks like any parcel, and runs once the fence opens.
func TestDirectActionParksAtFence(t *testing.T) {
	rig := startDirectRig(t, onceShapes[0].wires(t), 0)
	r1, g := rig.rts[1], rig.shards[2]
	r1.fences.close(g)
	const n = 8
	futs := make([]*lco.Future, n)
	for i := range futs {
		futs[i] = rig.rts[0].CallFrom(0, g, actDirectPut, kvPutArgs("k", int64(i)))
	}
	// The fabric delivers node 0's frames to node 1 in order, on one
	// goroutine: once a later call is answered, the puts have arrived.
	if _, err := rig.rts[0].CallFrom(0, rig.shards[3], actDirectGet, kvGetArgs("k")).Get(); err != nil {
		t.Fatal(err)
	}
	if parked := r1.slow.Parked.Value(); parked != n {
		t.Fatalf("%d of %d puts parked at the closed fence", parked, n)
	}
	for i, f := range futs {
		if f.Resolved() {
			t.Fatalf("put %d answered through a closed fence", i)
		}
	}
	for _, pk := range r1.fences.open(g) {
		r1.runHanded(r1.route(pk.loc, pk.p, false))
	}
	for i, f := range futs {
		if v, err := f.Get(); err != nil || v.(int64) != int64(i) {
			t.Fatalf("put %d after the fence opened: %v, %v", i, v, err)
		}
	}
	rig.stop(t)
}

// TestDirectLocalCallPassesHeldWorkers: with both workers of locality 1
// held in a blocking action, a node-local call to a direct action there
// runs on the caller — its future is resolved when CallFrom returns —
// while a call of the same body, not marked direct, to the same object
// waits for a worker until the hold is released.
func TestDirectLocalCallPassesHeldWorkers(t *testing.T) {
	rig := startLocalDirectRig()
	r, g := rig.rts[0], rig.shards[1]
	for i := 0; i < 2; i++ {
		r.SendFrom(1, parcel.New(r.NewDataAt(1, struct{}{}), actPlainHold, nil))
	}
	<-rig.held
	<-rig.held
	put := r.CallFrom(0, g, actDirectPut, kvPutArgs("k", 7))
	if !put.Resolved() {
		t.Fatal("a direct call to a locality whose workers are all held was not answered on return")
	}
	if v, err := put.Get(); err != nil || v.(int64) != 7 {
		t.Fatalf("direct put: %v, %v; want 7", v, err)
	}
	plain := r.CallFrom(0, g, actPlainGet, kvGetArgs("k"))
	if plain.Resolved() {
		t.Fatal("a call not marked direct was answered while every worker of its locality was held")
	}
	close(rig.release)
	if v, err := plain.Get(); err != nil || v.(int64) != 7 {
		t.Fatalf("plain get after the release: %v, %v; want 7", v, err)
	}
	rig.stop(t)
}

// TestDirectLocalAwaitFails: a direct action run on its caller's goroutine
// has no worker to suspend, so its Await of an unresolved future fails
// with ErrDirectAwait, which fails the call.
func TestDirectLocalAwaitFails(t *testing.T) {
	rig := startLocalDirectRig()
	fut := rig.rts[0].CallFrom(0, rig.shards[1], actDirectProbe, parcel.NewArgs().Uint64(probeAwait).Encode())
	if !fut.Resolved() {
		t.Fatal("the inline probe did not answer on return")
	}
	if _, err := fut.Get(); err == nil || !strings.Contains(err.Error(), ErrDirectAwait.Error()) {
		t.Fatalf("inline Await: %v, want %v", err, ErrDirectAwait)
	}
	rig.stop(t)
}

// TestDirectLocalSelfCallIsQueued: a direct action that calls itself on its
// own node does not nest: the caller's run is inline, off any worker, and
// the call it makes is queued and runs on a worker, with one dispatch on
// each stack.
func TestDirectLocalSelfCallIsQueued(t *testing.T) {
	rig := startLocalDirectRig()
	fut := rig.rts[0].CallFrom(0, rig.shards[1], actDirectProbe, parcel.NewArgs().Uint64(probeSelf).Encode())
	if !fut.Resolved() {
		t.Fatal("the outer call did not run inline")
	}
	rig.rts[0].Wait()
	const worker = "(*Locality).runTask"
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if len(rig.stacks) != 2 {
		t.Fatalf("%d runs of the self-calling action, want 2", len(rig.stacks))
	}
	for i, stack := range rig.stacks {
		if n := strings.Count(stack, "(*Runtime).execute\n"); n != 1 {
			t.Fatalf("run %d has %d dispatches on its stack, want 1:\n%s", i, n, stack)
		}
		if onWorker := strings.Contains(stack, worker); onWorker != (i == 1) {
			t.Fatalf("run %d on a worker: %v, want %v:\n%s", i, onWorker, i == 1, stack)
		}
	}
	rig.stop(t)
}

// TestDirectLocalCallParksAtFence: a node-local direct call to an object
// whose fence is closed parks like any parcel, and runs once when the
// fence opens.
func TestDirectLocalCallParksAtFence(t *testing.T) {
	rig := startLocalDirectRig()
	r, g := rig.rts[0], rig.shards[1]
	r.fences.close(g)
	const n = 8
	futs := make([]*lco.Future, n)
	for i := range futs {
		futs[i] = r.CallFrom(0, g, actDirectPut, kvPutArgs("k", int64(i)))
	}
	if parked := r.slow.Parked.Value(); parked != n {
		t.Fatalf("%d of %d puts parked at the closed fence", parked, n)
	}
	for i, f := range futs {
		if f.Resolved() {
			t.Fatalf("put %d answered through a closed fence", i)
		}
	}
	if runs := rig.runs.Load(); runs != 0 {
		t.Fatalf("%d puts ran through a closed fence", runs)
	}
	for _, pk := range r.fences.open(g) {
		r.runHanded(r.route(pk.loc, pk.p, false))
	}
	for i, f := range futs {
		if v, err := f.Get(); err != nil || v.(int64) != int64(i) {
			t.Fatalf("put %d after the fence opened: %v, %v", i, v, err)
		}
	}
	r.Wait()
	if runs := rig.runs.Load(); runs != n {
		t.Fatalf("%d runs of %d parked puts, want each once", runs, n)
	}
	rig.stop(t)
}

// TestMarkDirectRefusesBuiltins: a built-in action's body sends and
// resolves LCOs the reader rule does not cover, so it cannot be marked.
func TestMarkDirectRefusesBuiltins(t *testing.T) {
	r := New(Config{Localities: 1, WorkersPerLocality: 1})
	defer r.Shutdown()
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "built-in") {
			t.Fatalf("MarkDirect(%q) did not panic: %v", ActionLCOTrigger, v)
		}
	}()
	r.MarkDirect(ActionLCOTrigger)
}

// TestReaderAwaitIsTyped: ErrDirectAwait is matchable with errors.Is where
// it does not cross the wire.
func TestReaderAwaitIsTyped(t *testing.T) {
	ctx := &Context{noWait: true}
	if _, err := ctx.Await(lco.NewFuture()); !errors.Is(err, ErrDirectAwait) {
		t.Fatalf("Await on a reader: %v, want ErrDirectAwait", err)
	}
	f := lco.NewFuture()
	_ = f.Set(int64(3))
	if v, err := ctx.Await(f); err != nil || v.(int64) != 3 {
		t.Fatalf("Await of a resolved future on a reader: %v, %v; want 3", v, err)
	}
}
