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

// Built-in action names. The LCO actions let continuations target futures,
// gates and reductions transparently.
const (
	// ActionLCOSet resolves a future target with the parcel's value.
	ActionLCOSet = "px.lco.set"
	// ActionLCOFail fails a future target with an error message argument.
	ActionLCOFail = "px.lco.fail"
	// ActionLCOSignal signals an AndGate or Metathread target.
	ActionLCOSignal = "px.lco.signal"
	// ActionLCOContribute contributes the parcel's value to a Reduce target.
	ActionLCOContribute = "px.lco.contribute"
	// ActionLCOTrigger applies one trigger to a distributed LCO target:
	// args carry the operation, slot and value record (see Runtime.SetLCO
	// and friends). Every trigger, same-node or cross-node, is a parcel
	// carrying this action.
	ActionLCOTrigger = "px.lco.trigger"
	// ActionNop does nothing; useful for measuring pure parcel overhead.
	ActionNop = "px.nop"
)

func registerBuiltins(a *actionRegistry) {
	mustReg := func(name string, fn ActionFunc) {
		if err := a.register(name, fn); err != nil {
			panic(err)
		}
	}
	mustReg(ActionLCOSet, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		switch f := target.(type) {
		case *lco.Future:
			v, err := decodeValueArg(args)
			if err != nil {
				return nil, err
			}
			if err := f.Set(v); err != nil {
				return nil, err
			}
			return v, nil
		case *DistLCO:
			raw := args.BytesAliased()
			if err := args.Err(); err != nil {
				return nil, err
			}
			v, err := parcel.DecodeAny(raw)
			if err != nil {
				return nil, err
			}
			return v, ctx.rt.applyDistTrigger(ctx.loc, f, TrigSet, 0, raw)
		}
		return nil, fmt.Errorf("core: %s on %T", ActionLCOSet, target)
	})
	mustReg(ActionLCOFail, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		msg := args.String()
		if err := args.Err(); err != nil {
			return nil, err
		}
		switch f := target.(type) {
		case *lco.Future:
			failErr := fmt.Errorf("remote action failed: %s", msg)
			if err := f.Fail(failErr); err != nil {
				return nil, err
			}
			return nil, nil
		case *DistLCO:
			raw, _ := parcel.EncodeAny(msg)
			return nil, ctx.rt.applyDistTrigger(ctx.loc, f, TrigFail, 0, raw)
		}
		return nil, fmt.Errorf("core: %s on %T", ActionLCOFail, target)
	})
	mustReg(ActionLCOSignal, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		switch g := target.(type) {
		case *lco.AndGate:
			g.Signal()
		case *lco.Metathread:
			g.Signal()
		case *DistLCO:
			return nil, ctx.rt.applyDistTrigger(ctx.loc, g, TrigSignal, 0, nil)
		default:
			return nil, fmt.Errorf("core: %s on %T", ActionLCOSignal, target)
		}
		return nil, nil
	})
	mustReg(ActionLCOContribute, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		switch red := target.(type) {
		case *lco.Reduce:
			v, err := decodeValueArg(args)
			if err != nil {
				return nil, err
			}
			if err := red.Contribute(v); err != nil {
				return nil, err
			}
			return nil, nil
		case *DistLCO:
			raw := args.BytesAliased()
			if err := args.Err(); err != nil {
				return nil, err
			}
			return nil, ctx.rt.applyDistTrigger(ctx.loc, red, TrigContribute, 0, raw)
		}
		return nil, fmt.Errorf("core: %s on %T", ActionLCOContribute, target)
	})
	mustReg(ActionLCOTrigger, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		op := TrigOp(args.Uint64())
		slot := uint32(args.Uint64())
		raw := args.BytesAliased()
		if err := args.Err(); err != nil {
			return nil, err
		}
		switch t := target.(type) {
		case *DistLCO:
			return nil, ctx.rt.applyDistTrigger(ctx.loc, t, op, slot, raw)
		default:
			return nil, applyPlainTrigger(t, op, raw)
		}
	})
	mustReg(ActionNop, func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return nil, nil
	})
}

// applyPlainTrigger maps a distributed trigger onto a process-local LCO —
// the waiter futures of WaitLCO, or any plain LCO a trigger names. Both
// LCO families apply each trigger once, as it is dispatched once, and
// both ignore a set or fail on a target already resolved. What still
// divides them is that a plain LCO keeps its waiters as callbacks and so
// cannot migrate, where a DistLCO keeps them as data.
//
// Like applyDistTrigger, it reads raw and keeps nothing of it: raw aliases
// the trigger parcel's argument record, which recycles once the action
// returns, and DecodeAny copies every value out of the record it reads.
func applyPlainTrigger(target any, op TrigOp, raw []byte) error {
	switch t := target.(type) {
	case *lco.Future:
		switch op {
		case TrigSet:
			v, err := parcel.DecodeAny(raw)
			if err != nil {
				return err
			}
			if err := t.Set(v); err != nil && !errors.Is(err, lco.ErrAlreadySet) {
				return err
			}
			return nil
		case TrigFail:
			v, err := parcel.DecodeAny(raw)
			if err != nil {
				return err
			}
			msg, _ := v.(string)
			if err := t.Fail(fmt.Errorf("remote LCO failed: %s", msg)); err != nil && !errors.Is(err, lco.ErrAlreadySet) {
				return err
			}
			return nil
		}
	case *lco.AndGate:
		if op == TrigSignal {
			t.Signal()
			return nil
		}
	case *lco.Reduce:
		if op == TrigContribute {
			v, err := parcel.DecodeAny(raw)
			if err != nil {
				return err
			}
			if err := t.Contribute(v); err != nil && !errors.Is(err, lco.ErrAlreadySet) {
				return err
			}
			return nil
		}
	}
	return fmt.Errorf("core: %s trigger on %T", op, target)
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

// Context is the view of the runtime an executing thread sees: which
// locality it is on, and the operations the model allows — sending parcels,
// spawning local threads, creating LCOs, and suspending on dependencies.
type Context struct {
	rt  *Runtime
	loc int
}

// Locality reports the executing locality.
func (c *Context) Locality() int { return c.loc }

// Runtime exposes the owning runtime.
func (c *Context) Runtime() *Runtime { return c.rt }

// Send routes a parcel; the source locality is stamped automatically.
func (c *Context) Send(p *parcel.Parcel) { c.rt.SendFrom(c.loc, p) }

// Call invokes action on dest and returns a future (homed here) for the
// result — split-phase remote invocation.
func (c *Context) Call(dest agas.GID, action string, args []byte) *lco.Future {
	return c.rt.CallFrom(c.loc, dest, action, args)
}

// Spawn starts a new local thread.
func (c *Context) Spawn(fn func(*Context)) { c.rt.Spawn(c.loc, fn) }

// SpawnAt starts a thread on another locality (implemented as a parcel to
// that locality's hardware object would be; the runtime short-circuits).
func (c *Context) SpawnAt(loc int, fn func(*Context)) { c.rt.Spawn(loc, fn) }

// Await suspends the current thread on f: the execution slot is released
// while blocked (the thread depletes into the future's wait list) and
// re-acquired on resumption, exactly the paper's suspension semantics.
func (c *Context) Await(f *lco.Future) (any, error) {
	if v, err, ok := f.TryGet(); ok {
		return v, err // dependency already satisfied: no suspension
	}
	c.rt.slow.Suspensions.Inc()
	var v any
	var err error
	start := now()
	c.rt.loc(c.loc).Suspend(func() { v, err = f.Get() })
	c.rt.slow.Waiting.ObserveDuration(now().Sub(start))
	return v, err
}

// NewFuture creates a future LCO homed at this locality with a global name.
func (c *Context) NewFuture() (agas.GID, *lco.Future) { return c.rt.NewFutureAt(c.loc) }
