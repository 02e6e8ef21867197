// Package schedbench holds the scheduler and wire microbenchmark bodies
// that the root bench_test.go wraps (go test -bench) and this package's
// allocation test runs directly. Keeping the bodies in one place
// guarantees the benchmarks and the test measure the same code.
//
// The package also preserves the pre-deque scheduler (MutexQueue) —
// one mutex-guarded slice served by a dispatcher that spawns a goroutine
// per task, gated by a slot channel — as the baseline the per-worker
// stealing deques are judged against. The headline comparison is
// PostDispatchMutex vs PostDispatchDeques on 8 workers.
package schedbench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	parallex "repro"
	"repro/internal/locality"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// MutexQueue is the retired single-lock locality scheduler, kept verbatim
// (minus store/steal/metrics) so benchmarks compare against real history
// rather than a strawman.
type MutexQueue struct {
	mu     sync.Mutex
	queue  []func()
	closed bool
	notify chan struct{}
	slots  chan struct{}

	done    chan struct{}
	running sync.WaitGroup
}

// NewMutexQueue starts a baseline scheduler with the given worker bound.
func NewMutexQueue(workers int) *MutexQueue {
	q := &MutexQueue{
		notify: make(chan struct{}, 1),
		slots:  make(chan struct{}, workers),
		done:   make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		q.slots <- struct{}{}
	}
	go q.dispatch()
	return q
}

// Post enqueues fn, as the old Locality.Post did.
func (q *MutexQueue) Post(fn func()) {
	q.mu.Lock()
	q.queue = append(q.queue, fn)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *MutexQueue) pop() (func(), bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		return nil, false
	}
	fn := q.queue[0]
	q.queue = q.queue[1:]
	return fn, true
}

func (q *MutexQueue) dispatch() {
	defer close(q.done)
	for {
		fn, ok := q.pop()
		if !ok {
			q.mu.Lock()
			closed := q.closed
			empty := len(q.queue) == 0
			q.mu.Unlock()
			if closed && empty {
				return
			}
			<-q.notify
			continue
		}
		<-q.slots
		q.running.Add(1)
		go func() {
			defer func() {
				q.slots <- struct{}{}
				q.running.Done()
			}()
			fn()
		}()
	}
}

// Close drains and stops the baseline scheduler.
func (q *MutexQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	<-q.done
	q.running.Wait()
}

// postDispatch measures multi-producer post + dispatch throughput: b.N
// trivial tasks posted from `producers` goroutines, timed to full
// completion.
func postDispatch(b *testing.B, producers int, post func(func())) {
	var wg sync.WaitGroup
	wg.Add(b.N)
	task := func() { wg.Done() }
	b.ReportAllocs()
	b.ResetTimer()
	var pwg sync.WaitGroup
	base, rem := b.N/producers, b.N%producers
	for p := 0; p < producers; p++ {
		n := base
		if p < rem {
			n++
		}
		pwg.Add(1)
		go func(n int) {
			defer pwg.Done()
			for i := 0; i < n; i++ {
				post(task)
			}
		}(n)
	}
	pwg.Wait()
	wg.Wait()
	b.StopTimer()
	reportTaskRate(b, b.N)
}

func reportTaskRate(b *testing.B, tasks int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(tasks)/sec, "tasks/s")
	}
}

// PostDispatchMutex is the baseline: the single-mutex scheduler under a
// multi-producer flood.
func PostDispatchMutex(b *testing.B, workers, producers int) {
	q := NewMutexQueue(workers)
	postDispatch(b, producers, q.Post)
	q.Close()
}

// PostDispatchDeques is the same flood on the per-worker stealing deque
// scheduler.
func PostDispatchDeques(b *testing.B, workers, producers int) {
	l := locality.New(0, locality.Config{Workers: workers})
	postDispatch(b, producers, func(fn func()) {
		if err := l.Post(fn); err != nil {
			b.Error(err)
		}
	})
	l.Close()
}

// PingPong bounces a single task chain between two one-worker localities:
// pure scheduler latency, no batching to hide behind.
func PingPong(b *testing.B) {
	a := locality.New(0, locality.Config{Workers: 1})
	c := locality.New(1, locality.Config{Workers: 1})
	done := make(chan struct{})
	locs := [2]*locality.Locality{a, c}
	var hop func(remaining, at int)
	hop = func(remaining, at int) {
		if remaining == 0 {
			close(done)
			return
		}
		next := 1 - at
		if err := locs[next].Post(func() { hop(remaining-1, next) }); err != nil {
			b.Error(err)
			close(done)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hop(2*b.N, 1) // b.N round trips
	<-done
	b.StopTimer()
	a.Close()
	c.Close()
}

// StealImbalance floods one victim locality from one producer while idle
// stealing localities drain it: steady-state steal throughput.
func StealImbalance(b *testing.B, thieves int) {
	all := make([]*locality.Locality, 1+thieves)
	all[0] = locality.New(0, locality.Config{Workers: 1, Stealing: true})
	for i := 1; i < len(all); i++ {
		all[i] = locality.New(i, locality.Config{Workers: 1, Stealing: true})
	}
	for _, l := range all {
		l.SetVictims(all)
	}
	var wg sync.WaitGroup
	wg.Add(b.N)
	task := func() { wg.Done() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := all[0].Post(task); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
	b.StopTimer()
	reportTaskRate(b, b.N)
	var stolen uint64
	for _, l := range all {
		stolen += l.Stolen()
	}
	b.ReportMetric(float64(stolen)/float64(b.N), "stolen-frac")
	for _, l := range all {
		l.Close()
	}
}

// FanOutFanIn spawns width threads across four localities per iteration
// and collects them through an LCO AndGate — the split-phase fork/join the
// paper replaces barriers with.
func FanOutFanIn(b *testing.B, width int) {
	rt := parallex.New(parallex.Config{Localities: 4, WorkersPerLocality: 2})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := parallex.NewAndGate(width)
		for j := 0; j < width; j++ {
			rt.Spawn(j%4, func(*parallex.Context) { g.Signal() })
		}
		g.Wait()
	}
	b.StopTimer()
	reportTaskRate(b, b.N*width)
}

// Migrate measures the live-migration round trip: one vector object
// bounced between two localities b.N times while a chasing stream of
// split-phase calls keeps the object busy, so every move pays the full
// AGAS-v2 protocol — fence quiesce, parcel parking, directory commit,
// and the forwarded hops of the chasers.
func Migrate(b *testing.B, chasers int) {
	rt := parallex.New(parallex.Config{Localities: 2, WorkersPerLocality: 2})
	defer rt.Shutdown()
	rt.MustRegisterAction("schedbench.touch", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		return int64(len(target.([]float64))), nil
	})
	obj := rt.NewDataAt(0, make([]float64, 128))
	stop := make(chan struct{})
	var chased sync.WaitGroup
	for c := 0; c < chasers; c++ {
		chased.Add(1)
		go func(src int) {
			defer chased.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fut := rt.CallFrom(src, obj, "schedbench.touch", nil)
				if _, err := fut.Get(); err != nil {
					b.Error(err)
					return
				}
			}
		}(c % 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Migrate(obj, 1-i%2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	chased.Wait()
	rt.Wait()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "moves/s")
	}
	b.ReportMetric(float64(rt.SLOW().Parked.Value())/float64(b.N), "parked/move")
}

// ParcelFlood drives b.N nop parcels from locality 0 to an object on
// locality 1 through the full steady-state node-local path — post, AGAS
// resolve, pointer hand-off, dispatch — on one two-locality runtime. Its
// allocs/op figure is the hot path's allocation budget per parcel, pinned
// at 0 by TestHotPathsAllocationFree.
func ParcelFlood(b *testing.B, producers int) {
	parcelFlood(b, producers, parallex.Config{Localities: 2, WorkersPerLocality: 4})
}

// BalancerOff is the identical flood with every adaptive-balancer knob
// tuned but the enable switch (BalanceInterval) off: the configuration a
// production node ships with when balancing is staged but not yet turned
// on. TestHotPathsAllocationFree pins its allocs/op at zero — the
// sampling branch compiled into the delivery path must cost nothing while
// dormant.
func BalancerOff(b *testing.B, producers int) {
	parcelFlood(b, producers, parallex.Config{
		Localities:          2,
		WorkersPerLocality:  4,
		BalanceSampleEvery:  1,
		BalanceHotThreshold: 1,
		BalanceImbalance:    1.5,
		BalanceMaxMoves:     8,
		BalanceCooldown:     1,
	})
}

func parcelFlood(b *testing.B, producers int, cfg parallex.Config) {
	rt := parallex.New(cfg)
	defer rt.Shutdown()
	obj := rt.NewDataAt(1, struct{}{})
	// Warm the pools and the workers so the timed region measures steady state.
	rt.SendFrom(0, parcel.Acquire(obj, parallex.ActionNop, nil))
	rt.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	var pwg sync.WaitGroup
	base, rem := b.N/producers, b.N%producers
	for p := 0; p < producers; p++ {
		n := base
		if p < rem {
			n++
		}
		pwg.Add(1)
		go func(n int) {
			defer pwg.Done()
			for i := 0; i < n; i++ {
				rt.SendFrom(0, parcel.Acquire(obj, parallex.ActionNop, nil))
			}
		}(n)
	}
	pwg.Wait()
	rt.Wait()
	b.StopTimer()
	reportTaskRate(b, b.N)
}

// ParcelPingPong bounces one parcel rally between objects on two
// localities: each action send is a full post→route→hand-off→dispatch leg
// with no batching or parallelism to hide behind — per-parcel latency and
// allocation, measured end to end.
func ParcelPingPong(b *testing.B) {
	rt := parallex.New(parallex.Config{Localities: 2, WorkersPerLocality: 1})
	defer rt.Shutdown()
	var objs [2]parallex.GID
	var remaining atomic.Int64
	done := make(chan struct{})
	rt.MustRegisterAction("schedbench.pong", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		at := target.(int)
		if remaining.Add(-1) <= 0 {
			close(done)
			return nil, nil
		}
		ctx.Send(parcel.Acquire(objs[1-at], "schedbench.pong", nil))
		return nil, nil
	})
	objs[0] = rt.NewDataAt(0, 0)
	objs[1] = rt.NewDataAt(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	remaining.Store(int64(2 * b.N)) // b.N round trips
	rt.SendFrom(0, parcel.Acquire(objs[1], "schedbench.pong", nil))
	<-done
	b.StopTimer()
	rt.Wait()
}

// DistFutureRoundTrip measures the distributed LCO trigger path end to
// end on a two-node loopback-fabric machine: per iteration, node 0 mints
// a distributed future and subscribes a local waiter, node 1 resolves it
// with a trigger parcel, and the resolution fires back through the waiter
// — create, subscribe, cross-node trigger, fire. This is the latency of
// one split-phase synchronization through distributed LCO triggers.
func DistFutureRoundTrip(b *testing.B) {
	fabric := transport.NewFabric(2)
	ranges := []parallex.LocalityRange{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}}
	rts := make([]*parallex.Runtime, 2)
	for i := range rts {
		rts[i] = parallex.New(parallex.Config{
			Transport:          fabric.Node(i),
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: 2,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut := rts[0].NewDistFutureAt(0)
		wait := rts[0].WaitLCO(0, fut)
		if err := rts[1].SetLCO(1, fut, int64(i)); err != nil {
			b.Fatal(err)
		}
		if v, err := wait.Get(); err != nil || v.(int64) != int64(i) {
			b.Fatalf("round trip %d = %v, %v", i, v, err)
		}
		rts[0].FreeObject(fut)
	}
	b.StopTimer()
	rts[0].Wait()
	for _, rt := range rts {
		rt.Shutdown()
	}
}

// internTable is a minimal parcel.Table for the codec benchmark: wire
// position = index into names.
type internTable struct {
	names []string
	ids   map[string]uint32
}

func newInternTable(names ...string) *internTable {
	t := &internTable{names: names, ids: make(map[string]uint32, len(names))}
	for i, n := range names {
		t.ids[n] = uint32(i)
	}
	return t
}

// IDOf reports the wire position of a known action name.
func (t *internTable) IDOf(n string) (uint32, bool) { id, ok := t.ids[n]; return id, ok }

// ActionOf resolves a wire position back to its name.
func (t *internTable) ActionOf(id uint32) (string, uint32, bool) {
	if int(id) >= len(t.names) {
		return "", parcel.NoAID, false
	}
	return t.names[id], parcel.NoAID, true
}

// WireRoundTrip isolates the pooled parcel wire codec as the runtime
// drives it: acquire from the pool, encode interned into a recycled
// buffer, decode back into a pooled parcel, release everything. One small
// argument record and one continuation per parcel; the steady state is
// allocation-free.
func WireRoundTrip(b *testing.B) {
	tbl := newInternTable("schedbench.touch", parallex.ActionLCOSet)
	args := parallex.NewArgs().Int64(7).Float64(3.14).Encode()
	dest := parallex.GID{Home: 1, Kind: parallex.KindData, Seq: 42}
	cgid := parallex.GID{Home: 0, Kind: parallex.KindLCO, Seq: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := parcel.Acquire(dest, "schedbench.touch", args,
			parcel.Continuation{Target: cgid, Action: parallex.ActionLCOSet})
		w := parcel.GetWire()
		w.B = p.EncodeInterned(w.B, tbl)
		parcel.Release(p)
		q, rest, err := parcel.DecodePooledInterned(w.B, tbl)
		parcel.PutWire(w)
		if err != nil || len(rest) != 0 {
			b.Fatalf("decode: %v (%d trailing)", err, len(rest))
		}
		if q.Dest != dest {
			b.Fatal("roundtrip mismatch")
		}
		parcel.Release(q)
	}
}

// TCPRing3 drives one continuation-chain lap around a three-node TCP
// machine on loopback per iteration: the full stack — scheduler, parcel
// codec, batched wire — under the distributed quiescence protocol.
func TCPRing3(b *testing.B) {
	ranges := []parallex.LocalityRange{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}
	tcps := make([]*parallex.TCPTransport, 3)
	addrs := make([]string, 3)
	for i := range tcps {
		tr, err := parallex.NewTCPTransport(parallex.TCPTransportConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 3),
		})
		if err != nil {
			b.Fatal(err)
		}
		tcps[i] = tr
		addrs[i] = tr.Addr().String()
	}
	register := func(rt *parallex.Runtime) {
		rt.MustRegisterAction("schedbench.incr", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
			raw := args.Bytes()
			if err := args.Err(); err != nil {
				return nil, err
			}
			v, err := parallex.DecodeValue(raw)
			if err != nil {
				return nil, err
			}
			n, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("schedbench.incr got %T", v)
			}
			return n + 1, nil
		})
	}
	rts := make([]*parallex.Runtime, 3)
	for i, tr := range tcps {
		tr.SetPeers(addrs)
		rts[i] = parallex.New(parallex.Config{
			Transport:          tr,
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: 2,
			Register:           register,
		})
	}
	zero, err := parallex.EncodeValue(int64(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fgid, fut := rts[0].NewFutureAt(0)
		cont := make([]parallex.Continuation, 0, 6)
		for loc := 1; loc < rts[0].Localities(); loc++ {
			cont = append(cont, parallex.Continuation{Target: rts[0].LocalityGID(loc), Action: "schedbench.incr"})
		}
		cont = append(cont, parallex.Continuation{Target: fgid, Action: parallex.ActionLCOSet})
		p := parallex.NewParcel(rts[0].LocalityGID(0), "schedbench.incr",
			parallex.NewArgs().Bytes(zero).Encode(), cont...)
		rts[0].SendFrom(0, p)
		v, err := fut.Get()
		if err != nil {
			b.Fatal(err)
		}
		if got := v.(int64); got != int64(rts[0].Localities()) {
			b.Fatalf("lap %d counted %d hops, want %d", i, got, rts[0].Localities())
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*rts[0].Localities())/sec, "hops/s")
	}
	rts[0].Wait()
	for _, rt := range rts {
		rt.Shutdown()
	}
}
