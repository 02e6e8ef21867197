package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// ActionFunc is the body applied when a parcel reaches its target object.
// target is the object named by the parcel's destination GID (resolved from
// the executing locality's store). The returned value feeds the parcel's
// continuation, if any.
//
// ctx and args are pooled dispatch scratch: they are valid only until the
// action returns and must not be retained (by a spawned goroutine, a
// stored closure, or an LCO). Anything an action wants to keep it copies
// out — args.Bytes and friends already return copies — and follow-on work
// travels as a parcel or via ctx.Spawn, per the model.
type ActionFunc func(ctx *Context, target any, args *parcel.Reader) (any, error)

// actionSet is one immutable snapshot of the registry: dense 1-based IDs
// in registration order, so dispatch is a slice index and the ID order is
// identical on every node that registers the same actions in the same
// order (the multi-node contract: registration happens in Config.Register
// before the transport starts).
type actionSet struct {
	byName map[string]uint32 // name -> 1-based dense ID
	fns    []ActionFunc      // fns[id-1]
	names  []string          // names[id-1], the canonical interned strings
}

// actionRegistry maps action names to bodies. Actions are first-class in
// the model: their names travel in parcels and can be bound in the global
// namespace. Reads are lock-free — the per-parcel dispatch path loads an
// immutable copy-on-write snapshot — while registration (a startup-time
// operation) serializes on a mutex and publishes a new snapshot.
type actionRegistry struct {
	mu  sync.Mutex // serializes register; never taken by readers
	set atomic.Pointer[actionSet]
}

func newActionRegistry() *actionRegistry {
	a := &actionRegistry{}
	a.set.Store(&actionSet{byName: map[string]uint32{}})
	return a
}

func (a *actionRegistry) register(name string, fn ActionFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("core: action needs a name and a body")
	}
	if len(name) > parcel.MaxInternString {
		return fmt.Errorf("core: action name of %d bytes exceeds wire limit %d", len(name), parcel.MaxInternString)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.set.Load()
	if _, dup := old.byName[name]; dup {
		return fmt.Errorf("core: action %q already registered", name)
	}
	next := &actionSet{
		byName: make(map[string]uint32, len(old.byName)+1),
		fns:    append(append([]ActionFunc(nil), old.fns...), fn),
		names:  append(append([]string(nil), old.names...), name),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	next.byName[name] = uint32(len(next.fns)) // 1-based
	a.set.Store(next)
	return nil
}

// lookup resolves an action name to its body and dense ID, lock-free.
func (a *actionRegistry) lookup(name string) (ActionFunc, uint32, bool) {
	s := a.set.Load()
	id, ok := s.byName[name]
	if !ok {
		return nil, parcel.NoAID, false
	}
	return s.fns[id-1], id, true
}

// byID resolves a dense action ID to its body, lock-free. IDs come from
// lookup or an interned wire decode, so an in-range ID is always valid.
func (a *actionRegistry) byID(id uint32) (ActionFunc, bool) {
	s := a.set.Load()
	if id == parcel.NoAID || int(id) > len(s.fns) {
		return nil, false
	}
	return s.fns[id-1], true
}

// snapshot returns the current immutable action set; names are in dense
// ID order (names[i] has ID i+1). The distributed layer announces this
// prefix to peers as its interning table.
func (a *actionRegistry) snapshot() *actionSet { return a.set.Load() }

// RegisterAction installs a named action. Registration must happen before
// parcels naming the action are sent; duplicate names are rejected.
func (r *Runtime) RegisterAction(name string, fn ActionFunc) error {
	return r.acts.register(name, fn)
}

// MustRegisterAction is RegisterAction that panics on error, for program
// initialization.
func (r *Runtime) MustRegisterAction(name string, fn ActionFunc) {
	if err := r.RegisterAction(name, fn); err != nil {
		panic(err)
	}
}

// Built-in action names. The LCO actions let continuations target any LCO
// named in the global address space — a DistLCO, or the one-shot future
// in a reply slot (CallFrom, WaitLCO, NewFutureAt) — through one trigger
// interface (see applyTrigger).
const (
	// ActionLCOSet resolves a future target with the parcel's value.
	ActionLCOSet = "px.lco.set"
	// ActionLCOFail fails a future target with an error message argument.
	ActionLCOFail = "px.lco.fail"
	// ActionLCOSignal delivers one arrival to a gate target.
	ActionLCOSignal = "px.lco.signal"
	// ActionLCOContribute contributes the parcel's value to a reduce target.
	ActionLCOContribute = "px.lco.contribute"
	// ActionLCOTrigger applies any trigger operation to an LCO target:
	// args carry the operation, slot and value record (see Runtime.SetLCO
	// and friends). Every trigger the runtime sends itself, same-node or
	// cross-node, is a parcel carrying this action.
	ActionLCOTrigger = "px.lco.trigger"
	// ActionNop does nothing; useful for measuring pure parcel overhead.
	ActionNop = "px.nop"
	// ActionAGASInstall installs a migrating object at the target
	// locality, and ActionAGASCommit commits a migrated object's new owner
	// in the target locality's home directory. A cross-node Migrate calls
	// both on locality hardware names; they run on the read goroutine.
	ActionAGASInstall = "px.agas.install"
	ActionAGASCommit  = "px.agas.commit"
)

// ErrTriggerMismatch reports a trigger operation its target does not
// accept: a signal to a future, a contribute to a gate, any trigger to an
// object that is not an LCO.
var ErrTriggerMismatch = errors.New("trigger does not apply to this target")

func registerBuiltins(a *actionRegistry) {
	mustReg := func(name string, fn ActionFunc) {
		if err := a.register(name, fn); err != nil {
			panic(err)
		}
	}
	// The value-carrying actions' argument is one value record.
	valueAction := func(op TrigOp) ActionFunc {
		return func(ctx *Context, target any, args *parcel.Reader) (any, error) {
			raw := args.BytesAliased()
			if err := args.Err(); err != nil {
				return nil, err
			}
			v, err := ctx.rt.applyTrigger(ctx, target, op, 0, raw)
			if op != TrigSet {
				v = nil // only a set hands its value on to a continuation
			}
			return v, err
		}
	}
	mustReg(ActionLCOSet, valueAction(TrigSet))
	mustReg(ActionLCOFail, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		msg := args.String()
		if err := args.Err(); err != nil {
			return nil, err
		}
		raw, _ := parcel.EncodeAny(msg) // a string always encodes
		_, err := ctx.rt.applyTrigger(ctx, target, TrigFail, 0, raw)
		return nil, err
	})
	mustReg(ActionLCOSignal, func(ctx *Context, target any, _ *parcel.Reader) (any, error) {
		_, err := ctx.rt.applyTrigger(ctx, target, TrigSignal, 0, nil)
		return nil, err
	})
	mustReg(ActionLCOContribute, valueAction(TrigContribute))
	mustReg(ActionLCOTrigger, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		op := TrigOp(args.Uint64())
		slot := uint32(args.Uint64())
		raw := args.BytesAliased()
		if err := args.Err(); err != nil {
			return nil, err
		}
		_, err := ctx.rt.applyTrigger(ctx, target, op, slot, raw)
		return nil, err
	})
	mustReg(ActionNop, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return nil, nil
	})
	mustReg(ActionAGASInstall, agasInstall)
	mustReg(ActionAGASCommit, agasCommit)
}

// applyTrigger applies one trigger to the LCO a built-in action targets,
// and is the one place that tells LCO targets apart: a DistLCO takes
// every operation its kind accepts, and the future in a reply slot takes
// a set or a fail. It decodes a value-carrying trigger's record once and
// returns the value. raw aliases the trigger parcel's argument record,
// which recycles once the action returns, so nothing here keeps it:
// DecodeAny copies every value out of the record it reads. ctx is the
// trigger's dispatch: its locality, and whether it runs on a read
// goroutine (settle).
func (r *Runtime) applyTrigger(ctx *Context, target any, op TrigOp, slot uint32, raw []byte) (any, error) {
	var v any
	switch op {
	case TrigSet, TrigFail, TrigContribute, TrigSupply:
		var err error
		if v, err = parcel.DecodeAny(raw); err != nil {
			return nil, fmt.Errorf("core: %s trigger value: %w", op, err)
		}
	}
	switch t := target.(type) {
	case *DistLCO:
		return v, r.applyDistTrigger(ctx.loc, t, op, slot, v, raw)
	case *lco.Future:
		// The slot was emptied as the parcel reached it, so this is the
		// first and only trigger the future sees; a later one is stale.
		switch op {
		case TrigSet:
			return v, r.settle(ctx, t, v, nil)
		case TrigFail:
			msg, _ := v.(string)
			return nil, r.settle(ctx, t, nil, fmt.Errorf("remote action failed: %s", msg))
		}
	}
	return nil, fmt.Errorf("core: %s trigger on %T: %w", op, target, ErrTriggerMismatch)
}

// Context is the view of the runtime an executing thread sees: which
// locality it is on, and the operations the model allows — sending parcels,
// spawning local threads, creating LCOs, and suspending on dependencies.
//
// A direct action (see MarkDirect), which runs where its parcel lands —
// on a transport read goroutine or on the goroutine that sent it — sees
// the same operations, under the rule that nothing waits: Send and Call
// never wait on a lane (a full lane hands the send to a task on this
// locality), a Send or Call to a direct action of this node is queued
// rather than run inline, Spawn posts as it always does, and Await of a
// future not yet resolved fails with ErrDirectAwait instead of suspending.
type Context struct {
	rt  *Runtime
	loc int
	// noWait marks a dispatch that must not wait: a direct action, or a
	// reply resolving its slot on a read goroutine or for a caller that
	// must not wait (see sendFrom).
	noWait bool
}

// Locality reports the executing locality.
func (c *Context) Locality() int { return c.loc }

// Runtime exposes the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Send routes a parcel; the source locality is stamped automatically.
func (c *Context) Send(p *parcel.Parcel) { c.rt.sendFrom(c.loc, p, c.noWait) }

// Call invokes action on dest and returns a future (homed here) for the
// result — split-phase remote invocation.
func (c *Context) Call(dest agas.GID, action string, args []byte) *lco.Future {
	return c.rt.callFrom(c.loc, dest, action, args, c.noWait)
}

// Spawn starts a new local thread.
func (c *Context) Spawn(fn func(*Context)) { c.rt.Spawn(c.loc, fn) }

// SpawnAt starts a thread on another locality (implemented as a parcel to
// that locality's hardware object would be; the runtime short-circuits).
func (c *Context) SpawnAt(loc int, fn func(*Context)) { c.rt.Spawn(loc, fn) }

// Await suspends the current thread on f: the execution slot is released
// while blocked (the thread depletes into the future's wait list) and
// re-acquired on resumption, exactly the paper's suspension semantics. A
// direct action has no slot to release: there Await of an unresolved
// future returns ErrDirectAwait at once.
func (c *Context) Await(f *lco.Future) (any, error) {
	if v, err, ok := f.TryGet(); ok {
		return v, err // dependency already satisfied: no suspension
	}
	if c.noWait {
		return nil, ErrDirectAwait
	}
	c.rt.slow.Suspensions.Inc()
	var v any
	var err error
	start := now()
	c.rt.loc(c.loc).Suspend(func() { v, err = f.Get() })
	c.rt.slow.Waiting.ObserveDuration(now().Sub(start))
	return v, err
}
