package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/locality"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// SendFrom routes p from locality src toward the owner of p.Dest, where it
// executes as a new thread. A parcel for another locality of this node
// moves by pointer, after the network model's latency if it models one; one
// for another node crosses the transport. Until dispatch a node-local
// parcel references its Args rather than copying them. A reply to a call
// from this node, and a parcel for a direct action resident on this node
// (MarkDirect), run on the calling goroutine instead.
func (r *Runtime) SendFrom(src int, p *parcel.Parcel) { r.sendFrom(src, p, false) }

// sendFrom is SendFrom. noWait marks a caller that must not wait: a
// transport read goroutine (see distState.onFrame), or a direct action
// running inline. Its parcels for other nodes take sendParcel's refusing
// lane send, a reply it resolves hands its callbacks to a task (settle),
// and its parcels for direct actions of this node are queued, so inline
// runs nest one deep.
func (r *Runtime) sendFrom(src int, p *parcel.Parcel, noWait bool) {
	r.checkResident(src)
	if p.Dest.IsNil() {
		panic("core: send to nil GID")
	}
	p.Src = src
	r.traceParcel(src, p)
	r.addWork()
	start := slowClock(p.ID)
	loc, inline := r.route(src, p, noWait)
	if !start.IsZero() {
		r.slow.Overhead.ObserveDuration(now().Sub(start))
	}
	if inline != nil {
		r.runInline(loc, inline, noWait)
	}
}

// slowClock reads the clock for SLOW's Latency and Overhead for 1 parcel ID
// in 64 (by the top bits of a Fibonacci hash, even for IDs minted with a
// stride) and returns the zero time for the rest: clocking every parcel
// cost ≈ 10% of a node-local call's CPU. Continuations inherit the ID.
func slowClock(id uint64) time.Time {
	if (id*0x9e3779b97f4a7c15)>>(64-6) != 0 {
		return time.Time{}
	}
	return now()
}

// route resolves ownership and moves the parcel. The caller has already
// charged one work unit for p; route (or the failure path) releases it via
// the delivery task — or hands p back with its resident locality, for the
// caller to run inline (runInline) once SendFrom's clock stops (handOff).
func (r *Runtime) route(src int, p *parcel.Parcel, noWait bool) (int, *parcel.Parcel) {
	owner, err := r.agas.ResolveCached(src, p.Dest)
	if err != nil {
		r.deliverFailure(src, p, err)
		return 0, nil
	}
	if owner == src {
		r.slow.ParcelsLocal.Inc()
		return r.handOff(owner, p, noWait)
	}
	if r.dist != nil {
		node, known := r.dist.lmap.NodeOf(owner)
		if !known {
			r.deliverFailure(src, p, fmt.Errorf("core: owner locality %d outside machine: %w", owner, agas.ErrUnknown))
			return 0, nil
		}
		if node != r.dist.node {
			// The owner lives in another process: the parcel crosses the
			// real network in wire form. The work unit charged by SendFrom
			// stays held until the transport has taken the frame.
			r.dist.sendParcel(node, src, p, noWait)
			return 0, nil
		}
	}
	r.slow.ParcelsSent.Inc()
	// Another locality of this node shares this address space, so the
	// parcel itself moves, as on the same-locality path above.
	if lat := r.net.Latency(src, owner, len(p.Args)); lat > 0 {
		time.AfterFunc(lat, func() { r.runHanded(r.handOff(owner, p, false)) })
		return 0, nil
	}
	return r.handOff(owner, p, noWait)
}

// handOff ends a node-local leg of route at locality loc. A parcel that
// runsDirect accepts is handed back, with loc, to run inline where it
// landed: a reply always, a direct action only for a caller that may
// wait, so a direct action's own sends are queued and inline runs nest one
// deep. It takes the balancer's arrival sample as enqueue would. Anything
// else is enqueued on loc.
func (r *Runtime) handOff(loc int, p *parcel.Parcel, noWait bool) (int, *parcel.Parcel) {
	if (!noWait || isReply(p)) && r.runsDirect(loc, p) {
		r.sampleArrival(loc, p)
		return loc, p
	}
	r.enqueue(loc, p, noWait)
	return 0, nil
}

// runHanded runs the parcel route or handOff handed back, if any, on the
// calling goroutine, which may wait.
func (r *Runtime) runHanded(loc int, p *parcel.Parcel) {
	if p != nil {
		r.runInline(loc, p, false)
	}
}

// runInline runs the dispatch a task on resident locality loc would run
// for p, on the calling goroutine, with pooled scratch of its own, since
// the caller's may still be live. It releases p's work unit. A reply runs
// under its caller's rule (noWait; see sendFrom). A direct action always
// runs under the must-not-wait rule, whoever its caller is: Await of an
// unresolved future fails, its sends never wait on a lane, and a future
// it settles hands its callbacks to a task.
func (r *Runtime) runInline(loc int, p *parcel.Parcel, noWait bool) {
	t := execTaskPool.Get().(*execTask)
	t.r, t.loc, t.p = r, loc, p
	t.ctx.noWait = noWait || !isReply(p)
	t.fire()
}

// execTask is the pooled unit posted to a locality (or run inline, for a
// reply or a direct action) for one parcel dispatch. Its run closure is
// bound at pool birth, so the steady-state enqueue allocates neither a
// closure nor a task; the embedded Reader is likewise reset per dispatch
// instead of allocated.
type execTask struct {
	r   *Runtime
	loc int
	p   *parcel.Parcel
	rd  parcel.Reader
	ctx Context
	run func()
}

var execTaskPool sync.Pool

func init() {
	execTaskPool.New = func() any {
		t := &execTask{}
		t.run = t.fire
		return t
	}
}

func (t *execTask) fire() {
	r, loc, p := t.r, t.loc, t.p
	t.r, t.p = nil, nil
	r.execute(loc, p, &t.rd, &t.ctx)
	t.rd.Reset(nil)
	t.ctx = Context{}
	execTaskPool.Put(t)
	r.doneWork()
}

// enqueue schedules parcel execution on locality loc. The work unit charged
// by SendFrom is released when the action (and its continuation sends) have
// completed. The destination object's name is the placement hint: parcels
// for one object land on one worker's deque, preserving its cache affinity
// and keeping the deque lock uncontended for hot objects. A parcel shed by
// admission control is failed on the calling goroutine, whose sends never
// wait on a lane when noWait is set.
func (r *Runtime) enqueue(loc int, p *parcel.Parcel, noWait bool) {
	l := r.loc(loc)
	if l == nil {
		// The membership map names this node as loc's host, but nothing
		// executes there: a death verdict re-homes the corpse's localities
		// in the map before adoptLocalities installs them, and a locality
		// beyond the startup width is never installed at all. Only a
		// multi-node machine has such slots.
		r.deliverFailure(r.dist.home, p, fmt.Errorf("core: locality %d is not installed on node %d: %w", loc, r.dist.node, agas.ErrNodeLost))
		return
	}
	r.sampleArrival(loc, p)
	t := execTaskPool.Get().(*execTask)
	t.r, t.loc, t.p = r, loc, p
	if r.sheddable != nil {
		if _, shed := r.sheddable[p.Action]; shed {
			if err := l.PostAdmitted(int(p.Dest.Seq), t.run); err != nil {
				t.r, t.p = nil, nil
				execTaskPool.Put(t)
				if !errors.Is(err, locality.ErrOverloaded) {
					r.mustPost(err)
				}
				r.shedParcel(loc, p, noWait)
			}
			return
		}
	}
	r.mustPost(l.PostTo(int(p.Dest.Seq), t.run))
}

// sampleArrival is the balancer's arrival sampling of a parcel delivered
// to loc, queued or direct: one nil check when balancing is off (the
// zero-alloc contract), one atomic add when on, a shard mutex only on the
// sampled minority. Names that never migrate are not attributed.
func (r *Runtime) sampleArrival(loc int, p *parcel.Parcel) {
	if b := r.bal; b != nil && p.Dest.Kind.Movable() {
		b.sampler.Record(p.Dest, loc)
	}
}

// mustPost converts a locality post failure into a panic: the runtime
// quiesces before closing its localities, so a rejected post means work
// was injected after Shutdown — always a caller bug. The one exception is
// an abrupt Terminate (the crash model), where dropping queued work is
// the whole point.
func (r *Runtime) mustPost(err error) {
	if err == nil || r.terminating.Load() {
		return
	}
	panic(fmt.Sprintf("core: %v (work injected after shutdown)", err))
}

// execute runs the parcel's action as a fresh ephemeral thread on loc.
// Movable targets pass through the migration fence: the execution is
// registered so a migration can quiesce the object, and if a migration is
// in progress the parcel parks (keeping a work unit charged) until the
// move commits and the fence re-routes it. A reply name's target is the
// future in its slot, not an object in the store; a reply that finds the
// slot spent is late, and is counted and dropped.
//
// execute consumes p: dispatch (successful or failed) ends with the
// parcel released to its pool; the park and forward paths instead pass
// ownership on (to the fence and the re-route, respectively). rd and ctx
// are the caller's pooled scratch, valid only for this dispatch — the
// ActionFunc contract forbids retaining either beyond the action's
// return. ctx.noWait marks a dispatch that must not wait, on a read
// goroutine or inline: everything execute sends then takes the
// must-not-wait path (sendFrom).
func (r *Runtime) execute(loc int, p *parcel.Parcel, rd *parcel.Reader, ctx *Context) {
	fenced := p.Dest.Kind.Movable()
	if fenced {
		// Snapshot the fields the park branch reports before enter: a
		// false return means the fence owns the parcel, and a concurrent
		// migration commit may re-route and release it immediately —
		// touching p after that is a use-after-handoff. The park span
		// therefore records a copy of the trace context (a leaf hop; the
		// unparked re-route chains from the pre-park span).
		tc, action := p.Trace, p.Action
		if !r.fences.enter(p.Dest, loc, p) {
			// Parked. The fence holds the parcel; charge the parked leg
			// before this delivery's unit is released by our caller.
			r.addWork()
			r.slow.Parked.Inc()
			r.emitSpan(trace.SpanPark, loc, &tc, action)
			return
		}
	}
	var target any
	var reply *lco.Future
	if p.Dest.Kind == agas.KindReply {
		if reply = r.takeReply(loc, p.Dest); reply == nil {
			parcel.Release(p)
			return
		}
		target = reply
	} else if v, ok := r.loc(loc).Store().Get(p.Dest); ok {
		target = v
	} else {
		if fenced {
			r.fences.exit(p.Dest)
		}
		// The object is not here: our (or the sender's) translation was
		// stale — the next resolution will name the forwarding target.
		// Repair and re-route.
		r.forward(loc, p, ctx.noWait)
		return
	}
	// An interned wire decode (or a previous dispatch of this parcel) has
	// already resolved the dense action ID: indexing the snapshot slice is
	// the whole lookup. Parcels carrying only a name resolve it once here.
	fn, ok := r.acts.byID(p.AID)
	if !ok {
		var aid uint32
		if fn, aid, ok = r.acts.lookup(p.Action); ok {
			p.AID = aid
		}
	}
	if !ok {
		if fenced {
			r.fences.exit(p.Dest)
		}
		r.failParcel(loc, p, fmt.Errorf("core: unknown action %q", p.Action), ctx.noWait)
		return
	}
	if p.Trace.Sampled() && isTriggerAction(p.Action) {
		r.emitSpan(trace.SpanTrigger, loc, &p.Trace, p.Action)
	}
	r.slow.ThreadsSpawned.Inc()
	if seen := r.dispatched.Load(); seen != nil {
		(*seen)(p)
	}
	ctx.rt, ctx.loc = r, loc
	rd.Reset(p.Args)
	res, err := fn(ctx, target, rd)
	if fenced {
		r.fences.exit(p.Dest)
	}
	r.slow.TasksExecuted.Inc()
	if err != nil {
		if reply != nil {
			// The slot is spent, so no later reply can resolve the future
			// (a value whose codec this node lacks, say): its waiter hears
			// this error rather than nothing.
			_ = r.settle(ctx, reply, nil, err)
		}
		r.failParcel(loc, p, err, ctx.noWait)
		return
	}
	if cont, more := p.PopContinuation(); more {
		np, encErr := parcel.AcquireValue(cont.Target, cont.Action, res, p.Cont...)
		if encErr != nil {
			// The value was for cont, so cont hears why it never came.
			r.failTo(loc, p, cont, encErr, ctx.noWait)
			return
		}
		// The continuation inherits the chain's parcel ID, which keys
		// SLOW's clock sampling, and its trace context, so a sampled
		// chain is clocked and traced on every step.
		np.ID = p.ID
		np.Trace = p.Trace
		parcel.Release(p) // after Acquire copied the continuation tail
		r.sendFrom(loc, np, ctx.noWait)
		return
	}
	parcel.Release(p)
}

// maxHops bounds the forwarding retries of a parcel chasing a migrating
// object.
const maxHops = 64

// forward re-resolves a stale destination and re-routes the parcel,
// bounding the retry count. Re-delivery is slightly delayed so a migration
// in progress can land; it leaves from a timer, so only the failure of a
// parcel out of hops is sent from the caller's goroutine (noWait).
func (r *Runtime) forward(loc int, p *parcel.Parcel, noWait bool) {
	p.Hops++
	if p.Hops > maxHops {
		r.failParcel(loc, p, fmt.Errorf("core: %s exceeded %d forwarding hops", p, maxHops), noWait)
		return
	}
	r.agas.Invalidate(loc, p.Dest)
	r.emitSpan(trace.SpanMigrate, loc, &p.Trace, p.Action)
	r.addWork() // the new routing leg; our caller releases the old one
	time.AfterFunc(time.Duration(p.Hops)*5*time.Microsecond, func() {
		r.runHanded(r.route(loc, p, false))
	})
}

// failParcel delivers an action failure to the parcel's continuation, or
// records it on the runtime when no continuation exists. It consumes p.
// noWait marks a caller that must not wait (see sendFrom).
func (r *Runtime) failParcel(loc int, p *parcel.Parcel, err error, noWait bool) {
	if p.Action == ActionLCOTrigger && (errors.Is(err, agas.ErrUnknown) || IsNodeLost(err)) {
		// A trigger whose LCO is gone: it raced the LCO's Free on another
		// lane, or the LCO died with its node (or the send found that node
		// dead). It is late, not lost: the reply slots waiting on a dead
		// node are failed by the membership layer, so the trigger has no
		// one to tell. (A late reply never gets here — execute drops and
		// counts it.)
		parcel.Release(p)
		return
	}
	cont, ok := p.PopContinuation()
	if !ok {
		r.recordError(fmt.Errorf("parcel %s at L%d: %w", p, loc, err))
		parcel.Release(p)
		return
	}
	r.failTo(loc, p, cont, err, noWait)
}

// failTo delivers err to cont, a continuation already popped off p, and
// consumes p.
func (r *Runtime) failTo(loc int, p *parcel.Parcel, cont parcel.Continuation, err error, noWait bool) {
	np := parcel.Acquire(cont.Target, ActionLCOFail, nil)
	np.Args = np.OwnArgs().String(err.Error()).Encode()
	np.ID = p.ID // failure deliveries share the chain identity too
	np.Trace = p.Trace
	parcel.Release(p)
	r.sendFrom(loc, np, noWait)
}

// deliverFailure handles routing errors for a parcel whose work unit is
// charged but which cannot reach any locality.
func (r *Runtime) deliverFailure(src int, p *parcel.Parcel, err error) {
	// Release via a task so accounting stays uniform.
	r.mustPost(r.loc(src).Post(func() {
		defer r.doneWork()
		r.failParcel(src, p, err, false)
	}))
}
