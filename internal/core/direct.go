package core

// Direct dispatch: a parcel that is cheap and cannot wait runs where it
// lands — on the transport read goroutine that decoded it, or on the
// goroutine that sent it from this node — instead of crossing the
// locality's deque to a worker (HPX's direct action). Two kinds qualify,
// by one rule (runsDirect) on both paths. A reply settles its slot's
// future wherever it lands; the future's callbacks, which are application
// code, go to a task when the settling goroutine must not wait. An action
// marked direct (MarkDirect) runs where it lands when its target is
// resident here and nothing it sends can reach a movable name out of
// order; migration's install and directory commit (px.agas.*) are direct
// from construction. Every direct action runs under the must-not-wait
// rule: it never waits on a lane (see distState.onFrame) nor suspends,
// and its own parcels for direct actions of this node are queued, so
// inline runs nest one deep.

import (
	"errors"
	"strings"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// ErrDirectAwait is what Context.Await returns in a direct action when the
// future is not yet resolved: a direct action runs on a read goroutine or
// on its caller's, neither of which it may suspend. Returned from the
// action, it fails the parcel like any action error.
var ErrDirectAwait = errors.New("core: a direct action cannot await an unresolved future")

// MarkDirect declares the named actions direct: a parcel for one runs
// where it lands — on the read goroutine that decoded it when it arrives
// from another node, on the sending goroutine when it is sent from this
// node — when its target is resident on this node, its continuation, if
// any, is a reply slot, and — for an action also marked sheddable — the
// node runs with Config.AdmitLimit 0. With a limit set, admission control
// stays the overload policy and the parcel is queued as any other. A
// parcel that misses any condition is queued too, and so is one sent by a
// direct action or from a read goroutine: inline runs nest one deep. A
// parcel whose target is migrating parks at the fence, direct or not.
// Node-local parcels carry no order promise, so a direct one may overtake
// one queued before it.
//
// A direct action must be short and must not block: it holds up every
// frame behind it on its connection, or its caller, who may be holding
// locks of its own. Its Context never waits (see Context): Await of an
// unresolved future fails with ErrDirectAwait, and a Send or Call that
// meets a full lane leaves from a task instead, so it may be overtaken by
// later sends on that lane. Built-in actions (the px. names) cannot be
// marked. Like MarkSheddable, call it in Config.Register: the set is read
// lock-free on the delivery path once the transport starts.
func (r *Runtime) MarkDirect(names ...string) {
	for _, name := range names {
		if name == "" || strings.HasPrefix(name, "px.") {
			panic("core: MarkDirect of an empty or built-in action name")
		}
		r.direct[name] = struct{}{}
	}
}

// isReply reports whether p is a reply: a built-in LCO trigger (a set or
// fail from a call, a trigger from SetLCO or a DistLCO's waiter) for a
// reply slot, with nothing after it. It only settles a future, or records
// why it could not, so it runs wherever it lands, on the goroutine that
// routed it or read it off the wire.
func isReply(p *parcel.Parcel) bool {
	return p.Dest.Kind == agas.KindReply && len(p.Cont) == 0 && isTriggerAction(p.Action)
}

// runsDirect reports whether p, landing at resident locality loc, runs
// where it lands rather than on a worker: a reply, or a parcel for a
// direct action whose continuation, if any, is a reply slot — a reply's
// order is nobody's business, so a lane refusing a send that must not
// wait cannot reorder frames for a movable name — and that is not
// sheddable under an admission limit. It is the one rule for parcels read
// off the wire (distState.deliver) and for node-local ones (handOff).
func (r *Runtime) runsDirect(loc int, p *parcel.Parcel) bool {
	if r.loc(loc) == nil {
		return false
	}
	if isReply(p) {
		return true
	}
	if _, ok := r.direct[p.Action]; !ok {
		return false
	}
	if len(p.Cont) > 1 || (len(p.Cont) == 1 && p.Cont[0].Target.Kind != agas.KindReply) {
		return false
	}
	if _, shed := r.sheddable[p.Action]; shed && r.cfg.AdmitLimit > 0 {
		return false
	}
	return true
}

// settle resolves the future of a reply slot with v, or fails it with err.
// For a caller that may wait, the future's callbacks run here, in order.
// One that must not wait (ctx.noWait) only wakes the future's waiters: its
// callbacks are application code, which may block, so they run in one
// task on the slot's locality, under a work unit so Wait covers them.
// Only a future with callbacks costs that task and its closure.
func (r *Runtime) settle(ctx *Context, f *lco.Future, v any, err error) error {
	if !ctx.noWait {
		if err != nil {
			return f.Fail(err)
		}
		return f.Set(v)
	}
	cbs, serr := f.Settle(v, err)
	if len(cbs) > 0 {
		r.addWork()
		r.mustPost(r.loc(ctx.loc).Post(func() {
			defer r.doneWork()
			for _, cb := range cbs {
				cb(v, err)
			}
		}))
	}
	return serr
}
