package core

// Distributed LCOs: globally addressable futures, gates, reductions, and
// dataflow templates. A DistLCO is an ordinary AGAS object (KindLCO) whose
// whole state — counters, accumulator and subscribed waiters — is
// wire-encodable, so the object can live-migrate between nodes like any
// other and in-flight triggers chase the forwarding pointer like any
// parcel.
//
// A trigger is an ordinary parcel (action px.lco.trigger) sent to the
// LCO's name, on one node or across the wire: it is counted by the
// in-flight ledger, parks at a migration fence and chases a forwarding
// pointer exactly like any parcel. The wire is FIFO per lane and reliable
// while the peer lives (see distState.sendParcel), and each parcel is
// dispatched once, so a trigger needs neither an acknowledgement nor an
// identity of its own: it is applied exactly once.
//
// Resolution fires the LCO's subscribed waiters: each waiter names another
// LCO (by GID) and the trigger operation to apply there, so fan-in trees
// (lco/collect) and remote waits compose out of the same mechanism.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// TrigOp identifies one distributed LCO trigger operation. The values are
// wire-visible (they travel in px.lco.trigger parcels) and must not be
// renumbered.
type TrigOp uint8

// Trigger operations.
const (
	// TrigSet resolves a future (or a broadcast leaf) with the value.
	TrigSet TrigOp = 1 + iota
	// TrigFail resolves the target with an error message.
	TrigFail
	// TrigSignal delivers one gate arrival.
	TrigSignal
	// TrigContribute folds the value into a reduction.
	TrigContribute
	// TrigSupply fills one dataflow input slot (Waiter.Slot / the trigger's
	// slot field names the slot).
	TrigSupply
	// TrigWait subscribes a waiter: the value encodes the waiter record.
	TrigWait
)

func (op TrigOp) String() string {
	switch op {
	case TrigSet:
		return "set"
	case TrigFail:
		return "fail"
	case TrigSignal:
		return "signal"
	case TrigContribute:
		return "contribute"
	case TrigSupply:
		return "supply"
	case TrigWait:
		return "wait"
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// Waiter names what a distributed LCO triggers when it resolves: the
// target LCO's global name, the trigger operation to apply there, and —
// for TrigSupply — the dataflow slot to fill. Waiters are plain data, so
// they migrate with the LCO and cross the wire in subscription triggers.
type Waiter struct {
	Target agas.GID
	Op     TrigOp
	Slot   uint32
}

// lcoKind discriminates the DistLCO state machines. Wire-visible.
type lcoKind uint8

const (
	lcoFuture lcoKind = 1 + iota
	lcoGate
	lcoReduce
	lcoDataflow
)

// DistLCO is one globally addressable LCO. All state is guarded by mu and
// wire-encodable (see the px.distlco value codec below); concurrency-
// unfriendly pieces of the process-local LCOs — callbacks, channels — are
// deliberately absent. Local observation goes through Runtime.WaitLCO,
// which subscribes a plain future exactly as a remote node would.
type DistLCO struct {
	mu       sync.Mutex
	kind     lcoKind
	need     int    // remaining triggers until resolution
	red      redOp  // folds a reduction's contributions / a dataflow's slots
	acc      num    // a reduction's running accumulator, unboxed
	val      any    // the resolved value (a reduction's acc, boxed once)
	failMsg  string // non-empty once failed
	resolved bool
	slots    []any // dataflow inputs
	filled   []bool
	waiters  []Waiter
}

// Pending reports how many triggers remain until resolution (0 once
// resolved).
func (l *DistLCO) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.need
}

// Resolved reports the resolution snapshot: ok is false while unresolved
// (a reduction then reports its running accumulator); failMsg is non-empty
// for a failed LCO.
func (l *DistLCO) Resolved() (v any, failMsg string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kind == lcoReduce && !l.resolved {
		return l.acc.box(), "", false
	}
	return l.val, l.failMsg, l.resolved
}

// WaiterCount reports how many waiters are subscribed and unfired.
func (l *DistLCO) WaiterCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiters)
}

// Built-in reducer names. They are the whole set: a reduction or dataflow
// template names its operator, because names cross the wire with a
// migrating LCO and functions cannot, and every node folds the same four
// operations on the same two kinds of number.
const (
	// ReduceSum adds int64 or float64 contributions.
	ReduceSum = "px.red.sum"
	// ReduceMin keeps the smallest int64 or float64 contribution.
	ReduceMin = "px.red.min"
	// ReduceMax keeps the largest int64 or float64 contribution.
	ReduceMax = "px.red.max"
	// ReduceCount counts contributions, ignoring their values: each adds
	// one to the accumulator.
	ReduceCount = "px.red.count"
)

// redOp is a reducer resolved from its name, once: when its LCO is built
// or decoded, not per contribution. Futures and gates hold redNone.
type redOp uint8

const (
	redNone redOp = iota
	redSum
	redMin
	redMax
	redCount
)

var redNames = [...]string{redSum: ReduceSum, redMin: ReduceMin, redMax: ReduceMax, redCount: ReduceCount}

// String is the reducer's wire name ("" for redNone).
func (op redOp) String() string { return redNames[op] }

// parseRedOp resolves a reducer name; "" is redNone.
func parseRedOp(name string) (redOp, bool) {
	for op := range redNames {
		if redNames[op] == name {
			return redOp(op), true
		}
	}
	return redNone, false
}

// mustRedOp panics on an unknown reducer name: LCO construction is a
// program-structure operation, and a typo'd operator should fail at the
// construction site, not when the n-th contribution arrives.
func mustRedOp(name string) redOp {
	op, err := redOpNamed(name)
	if err != nil {
		panic(err.Error())
	}
	return op
}

// redOpNamed resolves a reducer name that must name one of the four.
func redOpNamed(name string) (redOp, error) {
	op, ok := parseRedOp(name)
	if !ok || op == redNone {
		return redNone, fmt.Errorf("core: unknown reducer %q", name)
	}
	return op, nil
}

// reduceStart resolves a reduction's reducer and starting accumulator.
func reduceStart(op string, init any) (redOp, num, error) {
	red, err := redOpNamed(op)
	if err != nil {
		return redNone, num{}, err
	}
	acc, ok := numOf(init)
	if !ok && init != nil {
		return redNone, num{}, fmt.Errorf("core: reduce init %T is not an int, int64, float64 or nil", init)
	}
	return red, acc, nil
}

// CheckReduce reports why NewDistReduceAt would panic on op and init, or
// nil if it accepts them: op must name a built-in reducer, and init be an
// int, int64, float64 or nil. A reduction built from a peer's values is
// checked with it first, so a bad one fails its request, not the node.
func CheckReduce(op string, init any) error {
	_, _, err := reduceStart(op, init)
	return err
}

// numKind says which of a num's fields holds its value.
type numKind uint8

const (
	numUnset numKind = iota // a nil init, before the first contribution
	numInt
	numFloat
)

func (k numKind) String() string {
	return [...]string{numUnset: "unset", numInt: "int64", numFloat: "float64"}[k]
}

// num is a reduction's accumulator or one contribution, unboxed: folding
// one into the other allocates nothing.
type num struct {
	kind numKind
	i    int64
	f    float64
}

// numOf converts a boxed number to a num, widening int to the int64 the
// wire makes of it. ok is false for anything else, nil included.
func numOf(v any) (n num, ok bool) {
	switch x := v.(type) {
	case int:
		return num{kind: numInt, i: int64(x)}, true
	case int64:
		return num{kind: numInt, i: x}, true
	case float64:
		return num{kind: numFloat, f: x}, true
	}
	return num{}, false
}

// box returns n as a value: nil while unset.
func (n num) box() any {
	switch n.kind {
	case numInt:
		return n.i
	case numFloat:
		return n.f
	}
	return nil
}

// fold folds the contribution whose value record is raw into acc, reading
// the record's tag and eight bytes in place: nothing is boxed. A count
// takes any value, so it decodes the record only to check that it is one.
func (op redOp) fold(acc num, raw []byte) (num, error) {
	if op == redCount {
		if _, err := parcel.DecodeAny(raw); err != nil {
			return acc, fmt.Errorf("core: %s contribution: %w: %w", op, ErrTriggerMismatch, err)
		}
		return op.apply(acc, num{})
	}
	var rd parcel.Reader
	rd.Reset(raw)
	v := num{kind: numInt}
	var isFloat bool
	if v.i, v.f, isFloat = rd.Number(); isFloat {
		v.kind = numFloat
	}
	if err := rd.Err(); err != nil {
		return acc, fmt.Errorf("core: %s contribution: %w: %w", op, ErrTriggerMismatch, err)
	}
	return op.apply(acc, v)
}

// apply folds v into acc. An unset acc takes v; otherwise both must be of
// one kind. A count ignores v and adds a one of acc's kind (an int64 one
// to an unset acc).
func (op redOp) apply(acc, v num) (num, error) {
	if op == redCount {
		op, v = redSum, num{kind: numInt, i: 1}
		if acc.kind == numFloat {
			v = num{kind: numFloat, f: 1}
		}
	}
	if acc.kind == numUnset {
		return v, nil
	}
	if v.kind != acc.kind {
		return acc, fmt.Errorf("core: %s of a %s into a %s accumulator: %w", op, v.kind, acc.kind, ErrTriggerMismatch)
	}
	// Both are of one kind, so the other kind's fields are zero on both
	// sides: they add nothing and decide no comparison.
	switch op {
	case redSum:
		acc.i += v.i
		acc.f += v.f
	case redMin:
		if v.i < acc.i || v.f < acc.f {
			acc = v
		}
	case redMax:
		if v.i > acc.i || v.f > acc.f {
			acc = v
		}
	}
	return acc, nil
}

// foldSlots folds a complete dataflow's slots in index order, from unset.
func (op redOp) foldSlots(slots []any) (any, error) {
	var acc num
	for i, s := range slots {
		v, ok := numOf(s)
		if !ok && op != redCount {
			return nil, fmt.Errorf("core: %s of dataflow slot %d: %T is not a number: %w", op, i, s, ErrTriggerMismatch)
		}
		var err error
		if acc, err = op.apply(acc, v); err != nil {
			return nil, fmt.Errorf("dataflow slot %d: %w", i, err)
		}
	}
	return acc.box(), nil
}

// NewDistFutureAt creates a globally addressable single-assignment future
// at resident locality loc, optionally pre-subscribed to waiters. Any node
// may resolve it with SetLCO/FailLCO (or a parcel continuation naming its
// GID) and observe it with WaitLCO.
func (r *Runtime) NewDistFutureAt(loc int, waiters ...Waiter) agas.GID {
	l := &DistLCO{kind: lcoFuture, need: 1, waiters: append([]Waiter(nil), waiters...)}
	return r.NewObjectAt(loc, agas.KindLCO, l)
}

// NewDistGateAt creates a globally addressable and-gate at loc expecting
// n >= 1 signals.
func (r *Runtime) NewDistGateAt(loc, n int, waiters ...Waiter) agas.GID {
	if n < 1 {
		panic(fmt.Sprintf("core: distributed gate needs at least 1 signal, got %d", n))
	}
	l := &DistLCO{kind: lcoGate, need: n, waiters: append([]Waiter(nil), waiters...)}
	return r.NewObjectAt(loc, agas.KindLCO, l)
}

// NewDistReduceAt creates a globally addressable reduction at loc
// expecting n >= 1 contributions folded by the built-in reducer op,
// starting from init: an int64 or a float64 (an int is widened to int64),
// or nil for an accumulator that takes the first contribution as it is.
// Contributions must be of the accumulator's kind; a count takes any.
// Any other op or init panics; CheckReduce tells beforehand.
func (r *Runtime) NewDistReduceAt(loc, n int, op string, init any, waiters ...Waiter) agas.GID {
	if n < 1 {
		panic(fmt.Sprintf("core: distributed reduce needs at least 1 contribution, got %d", n))
	}
	red, acc, err := reduceStart(op, init)
	if err != nil {
		panic(err.Error())
	}
	l := &DistLCO{kind: lcoReduce, need: n, red: red, acc: acc, waiters: append([]Waiter(nil), waiters...)}
	return r.NewObjectAt(loc, agas.KindLCO, l)
}

// NewDistDataflowAt creates a globally addressable dataflow template at
// loc with n >= 1 input slots. When every slot has been supplied
// (TrigSupply with the slot index) the built-in reducer op folds the
// slots in index order and the result resolves the template; slots that
// do not fold (not numbers, or numbers of both kinds) fail it.
func (r *Runtime) NewDistDataflowAt(loc, n int, op string, waiters ...Waiter) agas.GID {
	if n < 1 {
		panic(fmt.Sprintf("core: distributed dataflow needs at least 1 slot, got %d", n))
	}
	l := &DistLCO{
		kind: lcoDataflow, need: n, red: mustRedOp(op),
		slots: make([]any, n), filled: make([]bool, n),
		waiters: append([]Waiter(nil), waiters...),
	}
	return r.NewObjectAt(loc, agas.KindLCO, l)
}

// SetLCO resolves the LCO named g with v, from resident locality src. v
// must be wire-encodable.
func (r *Runtime) SetLCO(src int, g agas.GID, v any) error {
	return r.triggerValue(src, g, TrigSet, 0, v)
}

// FailLCO resolves the LCO named g with an error.
func (r *Runtime) FailLCO(src int, g agas.GID, msg string) {
	_ = r.triggerValue(src, g, TrigFail, 0, msg) // a string always encodes
}

// SignalLCO delivers one gate arrival to g.
func (r *Runtime) SignalLCO(src int, g agas.GID) {
	p, a := newTrigger(g, TrigSignal, 0)
	a.Bytes(nil)
	r.sendTrigger(src, p, a)
}

// ContributeLCO folds v into the reduction named g.
func (r *Runtime) ContributeLCO(src int, g agas.GID, v any) error {
	return r.triggerValue(src, g, TrigContribute, 0, v)
}

// SupplyLCO fills dataflow slot of the template named g with v.
func (r *Runtime) SupplyLCO(src int, g agas.GID, slot uint32, v any) error {
	return r.triggerValue(src, g, TrigSupply, slot, v)
}

// SubscribeLCO registers waiter w on the LCO named g, wherever in the
// machine it lives: when g resolves, w.Op is applied to w.Target with the
// resolved value (TrigFail with the error message on failure). Subscribing
// to an already-resolved LCO fires immediately.
func (r *Runtime) SubscribeLCO(src int, g agas.GID, w Waiter) {
	if w.Target.IsNil() {
		panic("core: subscribe with nil waiter target")
	}
	p, a := newTrigger(g, TrigWait, 0)
	mark := a.OpenRecord()
	a.GID(w.Target).Uint64(uint64(w.Op)).Uint64(uint64(w.Slot))
	a.CloseRecord(mark)
	r.sendTrigger(src, p, a)
}

// WaitLCO returns a plain local future (homed at resident locality src)
// that resolves when the LCO named g does — the remote-wait primitive:
// the future's reply slot subscribes to g exactly as any waiter would, so
// it keeps working while g migrates between nodes; use Context.Await (or
// Future.Get off-thread) to block on it. Subscribing to a name that was
// already freed leaves the future unresolved forever: a trigger to a
// freed name is dropped silently, because it may only have raced the
// Free on another lane, so wait before freeing, not after.
func (r *Runtime) WaitLCO(src int, g agas.GID) *lco.Future {
	r.checkResident(src)
	reply, fut := r.openReply(src, pickStripe(), g, time.Time{})
	if !reply.IsNil() {
		r.SubscribeLCO(src, g, Waiter{Target: reply, Op: TrigSet})
	}
	return fut
}

// decodeWaiter parses the value record built by SubscribeLCO.
func decodeWaiter(raw []byte) (Waiter, error) {
	rd := parcel.NewReader(raw)
	w := Waiter{Target: rd.GID()}
	w.Op = TrigOp(rd.Uint64())
	w.Slot = uint32(rd.Uint64())
	if err := rd.Err(); err != nil {
		return Waiter{}, fmt.Errorf("core: bad waiter record: %w", err)
	}
	if w.Target.IsNil() {
		return Waiter{}, errors.New("core: waiter with nil target")
	}
	return w, nil
}

// newTrigger acquires a px.lco.trigger parcel to g and writes the
// trigger's header into the parcel's own argument store. The caller
// appends the value field in place and hands both to sendTrigger, so a
// trigger record is built once, in the parcel that carries it.
func newTrigger(g agas.GID, op TrigOp, slot uint32) (*parcel.Parcel, *parcel.Args) {
	p := parcel.Acquire(g, ActionLCOTrigger, nil)
	a := p.OwnArgs()
	a.Uint64(uint64(op)).Uint64(uint64(slot))
	return p, a
}

// sendTrigger seals the record newTrigger started and sends the trigger to
// the LCO it names, wherever that lives: the parcel path counts it, fences
// it and forwards it like any other access.
func (r *Runtime) sendTrigger(src int, p *parcel.Parcel, a *parcel.Args) {
	p.Args = a.Encode()
	r.SendFrom(src, p)
}

// triggerValue sends one trigger carrying v's value record. Nothing is
// sent when v is not wire-encodable.
func (r *Runtime) triggerValue(src int, g agas.GID, op TrigOp, slot uint32, v any) error {
	p, a := newTrigger(g, op, slot)
	if err := a.Value(v); err != nil {
		parcel.Release(p)
		return err
	}
	r.sendTrigger(src, p, a)
	return nil
}

// fireWaiter delivers one resolution to a subscribed waiter: the waiter's
// operation with the resolved value, or TrigFail with the error message.
func (r *Runtime) fireWaiter(src int, w Waiter, val any, failMsg string) {
	if failMsg != "" {
		r.FailLCO(src, w.Target, failMsg)
		return
	}
	if err := r.triggerValue(src, w.Target, w.Op, w.Slot, val); err != nil {
		r.FailLCO(src, w.Target, fmt.Sprintf("resolved value not wire-encodable: %v", err))
	}
}

// applyDistTrigger applies one trigger to a locally hosted DistLCO,
// firing waiters on resolution. It runs inside a parcel action
// (a work unit is charged), so waiter fires charge their own legs through
// the normal send path. v is the trigger's value, already decoded by
// applyTrigger for every op but a contribution and a subscription, which
// read raw in place (into the accumulator, into a Waiter). raw aliases
// the trigger parcel's arguments, valid only until the action returns.
func (r *Runtime) applyDistTrigger(loc int, l *DistLCO, op TrigOp, slot uint32, v any, raw []byte) error {
	if op == TrigWait {
		w, err := decodeWaiter(raw)
		if err != nil {
			return err
		}
		l.mu.Lock()
		if l.resolved {
			val, failMsg := l.val, l.failMsg
			l.mu.Unlock()
			r.fireWaiter(loc, w, val, failMsg)
			return nil
		}
		l.waiters = append(l.waiters, w)
		l.mu.Unlock()
		return nil
	}

	l.mu.Lock()
	if l.resolved {
		// One-shot: a trigger past resolution (a second set, a signal
		// beyond the gate's count) has nothing left to change.
		l.mu.Unlock()
		return nil
	}
	if op == TrigFail {
		msg, _ := v.(string)
		if msg == "" {
			msg = "LCO failed"
		}
		l.failMsg = msg
		waiters := l.resolveLocked()
		l.mu.Unlock()
		for _, w := range waiters {
			r.fireWaiter(loc, w, nil, msg)
		}
		return nil
	}
	if aerr := l.applyValueLocked(op, slot, v, raw); aerr != nil {
		l.mu.Unlock()
		return aerr
	}
	if l.need > 0 {
		l.mu.Unlock()
		return nil
	}
	waiters := l.resolveLocked()
	val, failMsg := l.val, l.failMsg
	l.mu.Unlock()
	for _, w := range waiters {
		r.fireWaiter(loc, w, val, failMsg)
	}
	return nil
}

// applyValueLocked advances the state machine by one value-carrying
// trigger; the caller holds l.mu and has already handled resolution and
// TrigFail. A contribution is folded from its record raw; a failed fold
// changes nothing.
func (l *DistLCO) applyValueLocked(op TrigOp, slot uint32, v any, raw []byte) error {
	switch {
	case op == TrigSet && l.kind == lcoFuture:
		l.val = v
		l.need = 0
	case op == TrigSignal && l.kind == lcoGate:
		l.need--
	case op == TrigContribute && l.kind == lcoReduce:
		acc, err := l.red.fold(l.acc, raw)
		if err != nil {
			return err
		}
		l.acc = acc
		l.need--
	case op == TrigSupply && l.kind == lcoDataflow:
		if int(slot) >= len(l.slots) {
			return fmt.Errorf("core: dataflow slot %d out of range [0,%d)", slot, len(l.slots))
		}
		if l.filled[slot] {
			// Each trigger is applied once, so a refill is a program bug.
			return fmt.Errorf("core: dataflow slot %d already supplied", slot)
		}
		l.filled[slot] = true
		l.slots[slot] = v
		l.need--
		if l.need == 0 {
			val, err := l.red.foldSlots(l.slots)
			if err != nil {
				l.failMsg = err.Error() // resolves the template failed
			}
			l.val = val
		}
	default:
		return fmt.Errorf("core: %s trigger on %s LCO: %w", op, l.kindName(), ErrTriggerMismatch)
	}
	return nil
}

// resolveLocked marks the LCO resolved, boxing a reduction's accumulator
// as its value, and detaches its waiters; the caller holds l.mu and fires
// the returned waiters after unlocking.
func (l *DistLCO) resolveLocked() []Waiter {
	if l.kind == lcoReduce {
		l.val = l.acc.box()
	}
	l.resolved = true
	l.need = 0
	waiters := l.waiters
	l.waiters = nil
	return waiters
}

func (l *DistLCO) kindName() string {
	switch l.kind {
	case lcoFuture:
		return "future"
	case lcoGate:
		return "gate"
	case lcoReduce:
		return "reduce"
	case lcoDataflow:
		return "dataflow"
	}
	return fmt.Sprintf("kind%d", uint8(l.kind))
}
