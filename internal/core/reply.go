package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// A one-shot reply — the future behind CallFrom, WaitLCO or NewFutureAt — is a slot, not
// a name: exactly one parcel will ever target it, it never migrates, and it
// dies on first use, so it is addressed without being registered. Its GID
// has kind agas.KindReply, the caller's locality as Home (which agas.Locate
// answers from the GID alone, on every node), and a Seq this file alone
// interprets:
//
//	node (12 bits) | stripe (4 bits) | slot index (16 bits) | generation (32 bits)
//
// The stripe and index pick a slot in the home locality's table; the
// generation, bumped every time the slot is handed out, tells the one reply
// the slot waits for from every earlier holder's late one. The node is the
// process that minted the name: after a death the adopter of the home
// locality starts that locality's table afresh, and a reply to the corpse's
// slots must not land in it.
//
// A locality's table is striped because every CPU that calls from the
// locality opens and takes a slot per call, and a single mutex and free
// list would be written by all of them. Each stripe has its own mutex,
// slots and free list on cache lines of its own, and a call opens on its
// shard's stripe (Parcel.Shard), which it picked once as the stripe of the
// P it runs on (pickStripe), so on a node-local call the slot is opened
// and taken on the same CPU.
const (
	replyGenBits    = 32
	replyIdxBits    = 16
	replyStripeBits = 4
	replyStripes    = 1 << replyStripeBits
	maxStripeSlots  = 1 << replyIdxBits
	maxReplySlots   = replyStripes * maxStripeSlots
)

// noDep marks a slot whose reply can only come from this node.
const noDep = -1

// replySlot is one outstanding one-shot reply.
type replySlot struct {
	fut   *lco.Future // nil while the slot is free
	start time.Time   // when the call was issued; zero when its latency is not observed
	dep   int         // the node whose death fails the reply, or noDep
	gen   uint32
}

// replyStripe is one stripe of a locality's reply slots. Slots are recycled
// LIFO, so a stripe grows to its peak of outstanding replies and no
// further. The mutex is held for a handful of loads and stores per call.
type replyStripe struct {
	mu    sync.Mutex
	slots []replySlot
	free  []uint32
	_     [128 - 56]byte // stripes 128 bytes apart never share a cache line
}

// replyTable holds one locality's reply slots. Every open and take loads
// the table's first word, the compiler's nil check of the table pointer,
// so that word heads a line of its own: were it stripe 0's mutex, every
// CPU calling on another stripe would miss on the line stripe 0's CPU
// keeps writing.
type replyTable struct {
	_       [128]byte
	stripes [replyStripes]replyStripe
}

// stripeToken carries a stripe number. stripeTokens hands the same token
// back to the P that put it, from the P's private pool slot, so a P keeps
// its stripe without a shared write; a P whose token was lost to the
// garbage collector gets a new one, numbered round-robin.
type stripeToken struct{ stripe int }

var (
	nextStripe   atomic.Uint32
	stripeTokens = sync.Pool{New: func() any {
		return &stripeToken{stripe: int(nextStripe.Add(1) % replyStripes)}
	}}
)

// pickStripe returns the stripe of the calling goroutine's P. A call picks
// once and carries the answer as its parcel's shard.
func pickStripe() int {
	tok := stripeTokens.Get().(*stripeToken)
	st := tok.stripe
	stripeTokens.Put(tok)
	return st
}

// open hands out a slot for fut and returns the Seq naming it, or false
// when maxReplySlots replies are already outstanding. It opens on stripe
// home — the caller's shard — or, when that one is full, on the next one
// in order with room.
func (t *replyTable) open(home, node int, fut *lco.Future, start time.Time, dep int) (uint64, bool) {
	for k := 0; k < replyStripes; k++ {
		if seq, ok := t.openStripe((home+k)%replyStripes, node, fut, start, dep); ok {
			return seq, true
		}
	}
	return 0, false
}

// openStripe is open on stripe st alone.
func (t *replyTable) openStripe(st, node int, fut *lco.Future, start time.Time, dep int) (uint64, bool) {
	p := &t.stripes[st]
	p.mu.Lock()
	defer p.mu.Unlock()
	var i uint32
	if n := len(p.free); n > 0 {
		i = p.free[n-1]
		p.free = p.free[:n-1]
	} else if len(p.slots) < maxStripeSlots {
		i = uint32(len(p.slots))
		p.slots = append(p.slots, replySlot{})
	} else {
		return 0, false
	}
	s := &p.slots[i]
	*s = replySlot{fut: fut, start: start, dep: dep, gen: s.gen + 1}
	return uint64(node)<<(replyStripeBits+replyIdxBits+replyGenBits) |
		uint64(st)<<(replyIdxBits+replyGenBits) | uint64(i)<<replyGenBits | uint64(s.gen), true
}

// replyStripeOf returns the stripe a reply Seq names.
func replyStripeOf(seq uint64) int {
	return int(seq>>(replyIdxBits+replyGenBits)) & (replyStripes - 1)
}

// take empties the slot seq names and returns what it held. It reports
// false for a name minted by another node, and for one whose slot has
// since been resolved or handed out again: each slot is taken once.
func (t *replyTable) take(node int, seq uint64) (replySlot, bool) {
	if int(seq>>(replyStripeBits+replyIdxBits+replyGenBits)) != node {
		return replySlot{}, false
	}
	p := &t.stripes[replyStripeOf(seq)]
	i := uint32(seq>>replyGenBits) & (maxStripeSlots - 1)
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(i) >= len(p.slots) {
		return replySlot{}, false
	}
	s := &p.slots[i]
	if s.fut == nil || s.gen != uint32(seq) {
		return replySlot{}, false
	}
	return p.release(i), true
}

// takeNode empties every slot waiting on node.
func (t *replyTable) takeNode(node int) []replySlot {
	var lost []replySlot
	for st := range t.stripes {
		p := &t.stripes[st]
		p.mu.Lock()
		for i := range p.slots {
			if s := &p.slots[i]; s.fut != nil && s.dep == node {
				lost = append(lost, p.release(uint32(i)))
			}
		}
		p.mu.Unlock()
	}
	return lost
}

// release frees slot i, keeping its generation, and returns what it held.
// The caller holds p.mu.
func (p *replyStripe) release(i uint32) replySlot {
	s := &p.slots[i]
	held := *s
	s.fut = nil
	p.free = append(p.free, i)
	return held
}

// live reports how many slots are outstanding.
func (t *replyTable) live() int {
	n := 0
	for st := range t.stripes {
		p := &t.stripes[st]
		p.mu.Lock()
		n += len(p.slots) - len(p.free)
		p.mu.Unlock()
	}
	return n
}

// openReply creates the one-shot future of a split-phase exchange issued
// from resident locality src, and the reply name to hand the other side.
// It opens on stripe st, the caller's shard. dep names the object the
// reply comes from, if any: when its home is on another node, that node's
// death fails the future with the node-lost verdict. A nil name returned
// means the future has already failed and nothing is to be sent.
func (r *Runtime) openReply(src, st int, dep agas.GID, start time.Time) (agas.GID, *lco.Future) {
	fut := lco.NewFuture()
	node := noDep
	if d := r.dist; d != nil && !dep.IsNil() {
		if n, ok := d.lmap.NodeOf(int(dep.Home)); ok && n != d.node {
			node = n
		}
	}
	seq, ok := r.replies[src].open(st, r.NodeID(), fut, start, node)
	if !ok {
		_ = fut.Fail(fmt.Errorf("core: locality %d has %d replies outstanding", src, maxReplySlots))
		return agas.Nil, fut
	}
	g := agas.GID{Home: uint32(src), Kind: agas.KindReply, Seq: seq}
	// Registered first, checked second: a death declared in between finds
	// the slot (failLostWaiters), one declared before is seen here.
	if node != noDep && r.dist.peerDead(node) {
		if s, ok := r.replies[src].take(r.NodeID(), seq); ok {
			r.failLostReply(src, s)
		}
		return agas.Nil, fut
	}
	return g, fut
}

// NewFutureAt creates a one-shot future homed at resident locality loc,
// and the global name through which a parcel continuation, or SetLCO and
// FailLCO from any node, resolves it. The name is a reply slot, as a
// CallFrom's is: the first set or fail resolves the future and empties
// the slot, a later one is counted in px.reply.stale, and nothing is left
// to free. An LCO that is observed more than once, or may migrate, is a
// DistLCO (NewDistFutureAt).
func (r *Runtime) NewFutureAt(loc int) (agas.GID, *lco.Future) {
	r.checkResident(loc)
	return r.openReply(loc, pickStripe(), agas.Nil, time.Time{})
}

// takeReply resolves an arriving reply's name to the future it waits on,
// emptying the slot; nil means the reply is stale — late for a slot
// already failed by a death, or handed out again since — and was counted.
func (r *Runtime) takeReply(loc int, g agas.GID) *lco.Future {
	s, ok := r.replies[loc].take(r.NodeID(), g.Seq)
	if !ok {
		r.staleReplies.Add(1)
		return nil
	}
	r.observeReply(s)
	return s.fut
}

// observeReply books a sampled call's round trip as SLOW latency.
func (r *Runtime) observeReply(s replySlot) {
	if !s.start.IsZero() {
		r.slow.Latency.ObserveDuration(now().Sub(s.start))
	}
}

// failLostReply fails a slot of resident locality loc, taken because the
// node it waited on died. The future is settled in place, as a reply read
// off the wire is (settle): its waiters wake at once — a Migrate blocked
// on the only worker of loc would never see a task run — and only its
// callbacks, which are application code, wait for a task on loc.
func (r *Runtime) failLostReply(loc int, s replySlot) {
	r.observeReply(s)
	_ = r.settle(&Context{rt: r, loc: loc, noWait: true}, s.fut, nil, fmt.Errorf("core: node %d: %w", s.dep, agas.ErrNodeLost))
}

// failLostWaiters fails every one-shot reply stranded by node's death.
func (r *Runtime) failLostWaiters(node int) {
	for i := range r.replies {
		if r.loc(i) == nil {
			continue
		}
		for _, s := range r.replies[i].takeNode(node) {
			r.failLostReply(i, s)
		}
	}
}

// localReply reports the locality of the reply slot g when a trigger for
// it, routed from loc, would run inline on this goroutine with no
// modelled delay: g names a reply slot, its locality is installed on this
// node, and it is loc or the network charges nothing between the two for
// a message of any size. The trigger is then pure overhead, and the
// caller settles the slot's future in place (settleLocal) instead.
func (r *Runtime) localReply(loc int, g agas.GID) (int, bool) {
	if g.Kind != agas.KindReply {
		return 0, false
	}
	home := int(g.Home)
	if r.loc(home) == nil {
		return 0, false
	}
	if home != loc && (r.net.Latency(loc, home, 0) != 0 || r.net.Latency(loc, home, math.MaxInt32) != 0) {
		return 0, false
	}
	return home, true
}

// settleLocal settles the future of reply slot g at locality home, named
// by localReply, with v or err, as the px.lco.set or px.lco.fail parcel
// would: it records the trigger span of p's chain, and takes the slot (a
// stale one is counted and dropped) and settles it on the slot's locality
// under the dispatch's own noWait rule. It consumes p, the parcel whose
// continuation g was.
func (r *Runtime) settleLocal(home int, g agas.GID, p *parcel.Parcel, v any, err error, noWait bool) {
	action := ActionLCOSet
	if err != nil {
		action = ActionLCOFail
	}
	r.emitSpan(trace.SpanTrigger, home, &p.Trace, action)
	parcel.Release(p)
	if fut := r.takeReply(home, g); fut != nil {
		_ = r.settle(&Context{rt: r, loc: home, noWait: noWait}, fut, v, err)
	}
}

// replyValue is the value, or the error, that a reply carrying v gives
// its future — what encoding v into a value record and decoding it back
// gives, without the record where it can: nil arrives as false and int
// as int64, the other scalars as they are, and vectors as copies (an
// action may return its object's own state). Any other value makes the
// round trip through its codec; one with no codec fails the future as a
// wire reply's encode failure would.
func replyValue(v any) (any, error) {
	switch x := v.(type) {
	case nil:
		return false, nil
	case int:
		return int64(x), nil
	case bool, int64, uint64, float64, string, agas.GID:
		return v, nil
	case []byte:
		return append([]byte(nil), x...), nil
	case []float64:
		return append(make([]float64, 0, len(x)), x...), nil
	case []int64:
		return append(make([]int64, 0, len(x)), x...), nil
	}
	raw, err := parcel.EncodeAny(v)
	if err != nil {
		return nil, remoteFailure(err.Error())
	}
	if v, err = parcel.DecodeAny(raw); err != nil {
		return nil, fmt.Errorf("core: %s trigger value: %w", TrigSet, err)
	}
	return v, nil
}

// remoteFailure is the error a future hears when the action it waits on
// failed with msg, whichever node the failure came from.
func remoteFailure(msg string) error {
	return fmt.Errorf("remote action failed: %s", msg)
}
