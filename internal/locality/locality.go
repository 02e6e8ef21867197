// Package locality implements the ParalleX locality: the physical domain
// that executes threads. A locality owns an object store, a message-driven
// work pool, and a bounded set of execution workers. Threads that suspend
// release their worker (becoming, in the paper's terms, depleted threads
// held by an LCO), so a locality's workers are never blocked by waiting
// work — the property behind the model's latency hiding.
//
// Execution engine: each worker owns a bounded deque. Work posted from
// outside is sharded across the deques (round-robin, or by caller-supplied
// affinity hint via PostTo), overflowing to a shared inject queue when a
// deque is full. The owner serves its deque from the bottom under LIFO
// policy and from the top under FIFO; idle workers steal the oldest task
// from a random sibling, and — with Stealing enabled — from random victim
// localities. There is no global queue lock: the only shared mutable state
// on the post path is the chosen deque's own lock and two counters.
//
// Knobs: Config.Workers bounds concurrently running threads,
// Config.DequeSize bounds each worker's private ring before overflow
// (default 256), Config.Policy picks FIFO/LIFO service, Config.Stealing
// enables cross-locality theft.
package locality

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Policy selects the order the work queue is served in.
type Policy int

// Queue service policies.
const (
	// FIFO serves oldest work first: fair, breadth-first.
	FIFO Policy = iota
	// LIFO serves newest work first: depth-first, cache-friendly.
	LIFO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a locality.
type Config struct {
	// Workers bounds concurrently running (non-suspended) threads.
	Workers int
	// Policy selects queue order. FIFO is the default.
	Policy Policy
	// Stealing lets an idle locality take work from victims' queue fronts.
	Stealing bool
	// DequeSize bounds each worker's private deque; a full deque overflows
	// to the shared inject queue. Default 256.
	DequeSize int
	// OnSteal, when set, is invoked after each successful steal by this
	// locality (remote reports a cross-locality theft, false an intra-
	// locality sibling steal). It runs on the stealing worker's goroutine
	// and must be cheap and non-blocking.
	OnSteal func(remote bool)
	// AdmitLimit bounds the queue depth seen by PostAdmitted: when the
	// locality already holds this many queued tasks, an admission-checked
	// post is shed with ErrOverloaded instead of queueing without bound.
	// Zero disables admission control (PostAdmitted behaves like PostTo).
	// Plain Post/PostTo always bypass the limit — runtime-internal work
	// (continuations, forwards, fence replays) must never be shed, or
	// already-admitted requests would be lost halfway through.
	AdmitLimit int
}

// ErrClosed is returned by Post and PostTo on a closed locality. The
// runtime quiesces before shutdown, so at the runtime layer a late post is
// still a bug — but the locality records and reports it instead of
// dropping the task on the floor.
var ErrClosed = errors.New("locality: closed")

// ErrOverloaded is the typed load-shed verdict: PostAdmitted found the
// locality at its AdmitLimit and rejected the task instead of queueing
// it. The caller still owns the work — nothing was enqueued — and should
// surface the verdict to whoever can retry with backoff (the load
// generator, a remote client), not spin on resubmission.
var ErrOverloaded = errors.New("locality: overloaded")

// stealPoll bounds how stale an idle stealer's view of its victims (and a
// spare's view of the reclaim channel) may get: victims gain work without
// notifying foreign localities, so stealers poll.
const stealPoll = 50 * time.Microsecond

// Locality is one execution domain.
type Locality struct {
	id    int
	cfg   Config
	store *Store

	workers []*worker
	inject  injectq

	closed  atomic.Bool
	closeCh chan struct{}

	// width gates task execution at Workers concurrent threads. Every
	// runner — worker or spare — holds a permit while a task executes;
	// Suspend releases the permit around the blocking wait and re-acquires
	// it before resuming, which is exactly the paper's depleted-thread
	// rule: a suspended thread consumes no execution resources and
	// re-competes for one when its dependency fires.
	width widthGate

	// suspOut tracks threads currently depleted; spares exist to use the
	// permits those threads released, and retire when spares outnumber it.
	suspOut    atomic.Int64
	spares     atomic.Int64
	idleSpares atomic.Int64

	victims atomic.Pointer[[]*Locality]

	queued    atomic.Int64
	queuePeak atomic.Int64
	nparked   atomic.Int32
	rr        atomic.Uint32

	wg      sync.WaitGroup
	spareWG sync.WaitGroup

	tasksRun    atomic.Uint64
	stolen      atomic.Uint64
	stolenLocal atomic.Uint64
	suspends    atomic.Uint64
	dropped     atomic.Uint64
	sheds       atomic.Uint64
}

// worker is one execution slot: a goroutine, its private deque, its parker
// and its steal PRNG.
type worker struct {
	l      *Locality
	dq     *deque
	park   chan struct{}
	parked atomic.Bool
	rng    uint64
	idle   *metrics.IdleTracker
	timer  *time.Timer
}

// New creates and starts a locality with the given id.
func New(id int, cfg Config) *Locality {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.DequeSize <= 0 {
		cfg.DequeSize = 256
	}
	l := &Locality{
		id:      id,
		cfg:     cfg,
		store:   NewStore(),
		closeCh: make(chan struct{}),
	}
	l.width.init(cfg.Workers)
	l.workers = make([]*worker, cfg.Workers)
	for i := range l.workers {
		t := time.NewTimer(time.Hour)
		t.Stop()
		l.workers[i] = &worker{
			l:     l,
			dq:    newDeque(cfg.DequeSize),
			park:  make(chan struct{}, 1),
			rng:   (uint64(id)*2654435761 + uint64(i)*40503 + 0x9e3779b9) | 1,
			idle:  metrics.NewIdleTracker(),
			timer: t,
		}
	}
	l.wg.Add(cfg.Workers)
	for _, w := range l.workers {
		go w.run()
	}
	return l
}

// ID reports the locality's index.
func (l *Locality) ID() int { return l.id }

// Store returns the locality's object store.
func (l *Locality) Store() *Store { return l.store }

// SetVictims installs the steal set; only meaningful with Stealing enabled.
func (l *Locality) SetVictims(vs []*Locality) {
	l.victims.Store(&vs)
}

// Post enqueues fn for execution, sharding across worker deques
// round-robin. Posting to a closed locality returns ErrClosed (and counts
// toward Dropped); the runtime must quiesce before shutdown, so callers
// that cannot tolerate a late post should treat the error as fatal.
func (l *Locality) Post(fn func()) error {
	return l.PostTo(int(l.rr.Add(1)), fn)
}

// PostTo enqueues fn with a placement hint: equal hints land on the same
// worker's deque, so related tasks (parcels for one object, a thread's
// children) keep their cache affinity and take their deque lock
// uncontended. The hint is only a preference — a full deque overflows to
// the shared inject queue, and idle siblings steal regardless.
func (l *Locality) PostTo(hint int, fn func()) error {
	if fn == nil {
		panic("locality: post of nil task")
	}
	if l.closed.Load() {
		l.dropped.Add(1)
		return fmt.Errorf("locality %d: %w", l.id, ErrClosed)
	}
	// The count rises before the push so the drain at Close cannot observe
	// empty queues while a racing post is between count and push: workers
	// exit only at closed && queued == 0, and this post already holds the
	// count up.
	return l.postReserved(hint, l.queued.Add(1), fn)
}

// PostAdmitted is PostTo behind admission control: when the locality
// already holds Config.AdmitLimit queued tasks the post is shed — the
// task is NOT enqueued, the shed counter rises, and the caller gets
// ErrOverloaded to propagate as a load-shed verdict. With AdmitLimit 0
// it is exactly PostTo. Use it for externally driven work (incoming
// service requests); runtime-internal continuations must keep using
// Post/PostTo so admitted work always runs to completion.
func (l *Locality) PostAdmitted(hint int, fn func()) error {
	limit := l.cfg.AdmitLimit
	if limit <= 0 {
		return l.PostTo(hint, fn)
	}
	if fn == nil {
		panic("locality: post of nil task")
	}
	if l.closed.Load() {
		l.dropped.Add(1)
		return fmt.Errorf("locality %d: %w", l.id, ErrClosed)
	}
	// Reserve the queue slot first: Add-then-check is exact under
	// concurrent admission, where a load-then-Add race would admit
	// arbitrarily far past the limit.
	n := l.queued.Add(1)
	if n > int64(limit) {
		l.queued.Add(-1)
		l.sheds.Add(1)
		return fmt.Errorf("locality %d: %w", l.id, ErrOverloaded)
	}
	return l.postReserved(hint, n, fn)
}

// postReserved is the shared tail of PostTo and PostAdmitted: the caller
// already raised the queued count to n, so from here the task must land
// in a queue (or be drained inline when Close races the push).
func (l *Locality) postReserved(hint int, n int64, fn func()) error {
	w := l.workers[uint(hint)%uint(len(l.workers))]
	if !w.dq.pushBottom(fn) {
		l.inject.push(fn)
	}
	if l.closed.Load() {
		// Close landed between the entry check and the count: the workers
		// may all have seen empty queues and exited. Drain in their stead
		// so the task is executed, not stranded — a post that races Close
		// linearizes before it either way.
		l.drainLate()
		return nil
	}
	for {
		p := l.queuePeak.Load()
		if n <= p || l.queuePeak.CompareAndSwap(p, n) {
			break
		}
	}
	l.wake(w)
	return nil
}

// drainLate runs queued work on the caller's goroutine until none
// remains. It backstops posts that race Close: surviving workers may
// drain concurrently (pops are synchronized), and a task count held up by
// another mid-push poster resolves when that poster lands and drains too.
func (l *Locality) drainLate() {
	rng := (spareSeq.Add(1)*2654435761 + 0x9e3779b9) | 1
	for l.queued.Load() > 0 {
		if fn, ok := l.findAny(&rng); ok {
			l.runTask(fn)
		} else {
			runtime.Gosched()
		}
	}
}

// wake unparks one worker, preferring the deque owner the task landed on.
func (l *Locality) wake(preferred *worker) {
	if l.nparked.Load() == 0 {
		return
	}
	if preferred.parked.CompareAndSwap(true, false) {
		l.nparked.Add(-1)
		preferred.park <- struct{}{}
		return
	}
	for _, w := range l.workers {
		if w.parked.CompareAndSwap(true, false) {
			l.nparked.Add(-1)
			w.park <- struct{}{}
			return
		}
	}
}

func (w *worker) run() {
	defer w.l.wg.Done()
	l := w.l
	for {
		if fn, ok := w.find(); ok {
			l.runTask(fn)
			continue
		}
		if l.closed.Load() {
			if l.queued.Load() == 0 {
				return
			}
			// Siblings still hold queued tasks; help drain them.
			runtime.Gosched()
			continue
		}
		w.parkWait()
	}
}

// runTask executes one task under a width permit.
func (l *Locality) runTask(fn func()) {
	l.width.acquire()
	fn()
	l.width.release()
	l.tasksRun.Add(1)
}

// find locates the next task: own deque (per policy), the shared inject
// queue, a random sibling's deque top, then — with Stealing — a random
// victim locality.
func (w *worker) find() (func(), bool) {
	l := w.l
	var fn func()
	var ok bool
	if l.cfg.Policy == LIFO {
		fn, ok = w.dq.popBottom()
	} else {
		fn, ok = w.dq.popTop()
	}
	if ok {
		l.queued.Add(-1)
		return fn, true
	}
	if fn, ok = l.inject.pop(); ok {
		l.queued.Add(-1)
		return fn, true
	}
	if len(l.workers) > 1 {
		off := int(xorshift(&w.rng) % uint64(len(l.workers)))
		for i := 0; i < len(l.workers); i++ {
			v := l.workers[(off+i)%len(l.workers)]
			if v == w {
				continue
			}
			if fn, ok = v.dq.popTop(); ok {
				l.stolenLocal.Add(1)
				l.queued.Add(-1)
				if l.cfg.OnSteal != nil {
					l.cfg.OnSteal(false)
				}
				return fn, true
			}
		}
	}
	if l.cfg.Stealing {
		return l.stealRemote(&w.rng)
	}
	return nil, false
}

// stealRemote takes one task from a random victim locality.
func (l *Locality) stealRemote(rng *uint64) (func(), bool) {
	vsp := l.victims.Load()
	if vsp == nil || len(*vsp) == 0 {
		return nil, false
	}
	vs := *vsp
	off := int(xorshift(rng) % uint64(len(vs)))
	for i := range vs {
		v := vs[(off+i)%len(vs)]
		if v == l {
			continue
		}
		if fn, ok := v.stealOne(rng); ok {
			l.stolen.Add(1)
			if l.cfg.OnSteal != nil {
				l.cfg.OnSteal(true)
			}
			return fn, true
		}
	}
	return nil, false
}

// stealOne removes one task from this locality on behalf of a thief: the
// inject queue first (nobody's affinity is lost there), then deque tops.
func (l *Locality) stealOne(rng *uint64) (func(), bool) {
	if l.queued.Load() == 0 {
		return nil, false
	}
	if fn, ok := l.inject.pop(); ok {
		l.queued.Add(-1)
		return fn, true
	}
	off := int(xorshift(rng) % uint64(len(l.workers)))
	for i := range l.workers {
		if fn, ok := l.workers[(off+i)%len(l.workers)].dq.popTop(); ok {
			l.queued.Add(-1)
			return fn, true
		}
	}
	return nil, false
}

// parkWait blocks the worker until new work may exist. Stealing workers
// poll: victims gain work without notifying foreign localities.
func (w *worker) parkWait() {
	l := w.l
	w.parked.Store(true)
	l.nparked.Add(1)
	// Recheck after publishing the parked flag: a post racing our failed
	// find would otherwise be missed forever.
	if l.queued.Load() > 0 || l.closed.Load() {
		w.unpark()
		// Work is counted that find could not see: its poster is between
		// count and push (or a sibling between pop and uncount), and that
		// goroutine may be runnable on this very P. Yield to it; a worker
		// that spins here instead is only preempted every 10 ms.
		runtime.Gosched()
		return
	}
	w.idle.MarkIdle()
	if l.cfg.Stealing {
		w.timer.Reset(stealPoll)
		select {
		case <-w.park:
			w.stopTimer()
		case <-l.closeCh:
			w.stopTimer()
			w.unpark()
		case <-w.timer.C:
			w.unpark()
		}
	} else {
		select {
		case <-w.park:
		case <-l.closeCh:
			w.unpark()
		}
	}
	w.idle.MarkBusy()
}

// unpark clears the worker's own parked flag; if a waker won the race for
// it, the waker's token is already in flight and must be consumed so the
// channel is clean for the next cycle.
func (w *worker) unpark() {
	if w.parked.CompareAndSwap(true, false) {
		w.l.nparked.Add(-1)
		return
	}
	<-w.park
}

func (w *worker) stopTimer() {
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

// Suspend releases the caller's execution slot around blocking work,
// modelling thread depletion: wait runs with the slot released and the
// thread re-competes for a slot before continuing. Every task posted to
// this locality that blocks must wrap the blocking call in Suspend.
//
// Mechanically, Suspend returns the caller's width permit to the pool and
// makes sure a spare worker exists to use it, so the locality's execution
// width stays at Workers while the thread is depleted; the resume
// re-acquires a permit, and the surplus spare retires once no suspensions
// remain outstanding.
func (l *Locality) Suspend(wait func()) {
	l.suspends.Add(1)
	l.suspOut.Add(1)
	l.width.release()
	if l.idleSpares.Load() == 0 {
		l.spares.Add(1)
		l.spareWG.Add(1)
		go l.spare()
	}
	wait()
	l.width.acquire()
	l.suspOut.Add(-1)
}

// spare covers for suspended threads: it runs queued work (steal-only — it
// has no deque of its own) while suspensions are outstanding, and retires
// as soon as spares outnumber them.
func (l *Locality) spare() {
	defer l.spareWG.Done()
	rng := (spareSeq.Add(1)*2654435761 + 0x9e3779b9) | 1
	for {
		if s := l.spares.Load(); s > l.suspOut.Load() {
			if l.spares.CompareAndSwap(s, s-1) {
				return
			}
			continue
		}
		if fn, ok := l.findAny(&rng); ok {
			l.runTask(fn)
			continue
		}
		if l.closed.Load() && l.queued.Load() == 0 {
			l.spares.Add(-1)
			return
		}
		// Idle: poll. Suspensions resolve through LCOs at their own pace,
		// so a timed poll is the simplest race-free parking here.
		l.idleSpares.Add(1)
		time.Sleep(stealPoll)
		l.idleSpares.Add(-1)
	}
}

// spareSeq feeds spare-worker PRNG seeds; spares are transient so a shared
// counter is fine.
var spareSeq atomic.Uint64

// findAny is the steal-only task search used by spare workers.
func (l *Locality) findAny(rng *uint64) (func(), bool) {
	if fn, ok := l.inject.pop(); ok {
		l.queued.Add(-1)
		return fn, true
	}
	off := int(xorshift(rng) % uint64(len(l.workers)))
	for i := range l.workers {
		if fn, ok := l.workers[(off+i)%len(l.workers)].dq.popTop(); ok {
			l.queued.Add(-1)
			return fn, true
		}
	}
	if l.cfg.Stealing {
		return l.stealRemote(rng)
	}
	return nil, false
}

// Close stops the locality after draining queued and running work.
// Posting during or after Close returns ErrClosed.
func (l *Locality) Close() {
	if l.closed.CompareAndSwap(false, true) {
		close(l.closeCh)
	}
	l.wg.Wait()
	l.spareWG.Wait()
}

// QueueLen reports current queue depth across all deques and the inject
// queue.
func (l *Locality) QueueLen() int { return int(l.queued.Load()) }

// QueuePeak reports the high-water queue depth.
func (l *Locality) QueuePeak() int { return int(l.queuePeak.Load()) }

// TasksRun reports completed tasks.
func (l *Locality) TasksRun() uint64 { return l.tasksRun.Load() }

// Stolen reports tasks this locality stole from victim localities.
func (l *Locality) Stolen() uint64 { return l.stolen.Load() }

// StolenLocal reports intra-locality steals between sibling workers.
func (l *Locality) StolenLocal() uint64 { return l.stolenLocal.Load() }

// Dropped reports posts rejected because the locality was closed.
func (l *Locality) Dropped() uint64 { return l.dropped.Load() }

// Sheds reports admission-checked posts rejected with ErrOverloaded.
func (l *Locality) Sheds() uint64 { return l.sheds.Load() }

// Suspensions reports slot releases by suspending threads.
func (l *Locality) Suspensions() uint64 { return l.suspends.Load() }

// DequeDepths reports each worker's current private deque depth. It
// reads the deques' atomic size mirrors — no locks — so a balancer can
// poll it at introspection frequency without perturbing the workers. The
// shared inject queue's depth is QueueLen minus the sum reported here.
func (l *Locality) DequeDepths() []int {
	out := make([]int, len(l.workers))
	for i, w := range l.workers {
		out[i] = int(w.dq.size.Load())
	}
	return out
}

// IdleFraction reports the mean starvation fraction across workers so far.
func (l *Locality) IdleFraction() float64 {
	var s float64
	for _, w := range l.workers {
		s += w.idle.IdleFraction()
	}
	return s / float64(len(l.workers))
}
