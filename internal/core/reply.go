package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
)

// A one-shot reply — the future behind CallFrom, WaitLCO or NewFutureAt — is a slot, not
// a name: exactly one parcel will ever target it, it never migrates, and it
// dies on first use, so it is addressed without being registered. Its GID
// has kind agas.KindReply, the caller's locality as Home (which agas.Locate
// answers from the GID alone, on every node), and a Seq this file alone
// interprets:
//
//	node (12 bits) | slot index (20 bits) | generation (32 bits)
//
// The index picks a slot in the home locality's table; the generation,
// bumped every time the slot is handed out, tells the one reply the slot
// waits for from every earlier holder's late one. The node is the process
// that minted the name: after a death the adopter of the home locality
// starts that locality's table afresh, and a reply to the corpse's slots
// must not land in it.
const (
	replyGenBits  = 32
	replyIdxBits  = 20
	maxReplySlots = 1 << replyIdxBits
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

// replyTable holds one locality's reply slots. Slots are recycled LIFO, so
// the table grows to the locality's peak of outstanding replies and no
// further. The mutex is held for a handful of loads and stores per call;
// it stands where the directory's sync.Map store and delete used to.
type replyTable struct {
	mu    sync.Mutex
	slots []replySlot
	free  []uint32
}

// open hands out a slot for fut and returns the Seq naming it, or false
// when maxReplySlots replies are already outstanding.
func (t *replyTable) open(node int, fut *lco.Future, start time.Time, dep int) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else if len(t.slots) < maxReplySlots {
		i = uint32(len(t.slots))
		t.slots = append(t.slots, replySlot{})
	} else {
		return 0, false
	}
	s := &t.slots[i]
	*s = replySlot{fut: fut, start: start, dep: dep, gen: s.gen + 1}
	return uint64(node)<<(replyIdxBits+replyGenBits) | uint64(i)<<replyGenBits | uint64(s.gen), true
}

// take empties the slot seq names and returns what it held. It reports
// false for a name minted by another node, and for one whose slot has
// since been resolved or handed out again: each slot is taken once.
func (t *replyTable) take(node int, seq uint64) (replySlot, bool) {
	if int(seq>>(replyIdxBits+replyGenBits)) != node {
		return replySlot{}, false
	}
	i := uint32(seq>>replyGenBits) & (maxReplySlots - 1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(i) >= len(t.slots) {
		return replySlot{}, false
	}
	s := &t.slots[i]
	if s.fut == nil || s.gen != uint32(seq) {
		return replySlot{}, false
	}
	return t.release(i), true
}

// takeNode empties every slot waiting on node.
func (t *replyTable) takeNode(node int) []replySlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lost []replySlot
	for i := range t.slots {
		if s := &t.slots[i]; s.fut != nil && s.dep == node {
			lost = append(lost, t.release(uint32(i)))
		}
	}
	return lost
}

// release frees slot i, keeping its generation, and returns what it held.
// The caller holds t.mu.
func (t *replyTable) release(i uint32) replySlot {
	s := &t.slots[i]
	held := *s
	s.fut = nil
	t.free = append(t.free, i)
	return held
}

// live reports how many slots are outstanding.
func (t *replyTable) live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slots) - len(t.free)
}

// openReply creates the one-shot future of a split-phase exchange issued
// from resident locality src, and the reply name to hand the other side.
// dep names the object the reply comes from, if any: when its home is on
// another node, that node's death fails the future with the node-lost
// verdict. A nil name returned means the future has already failed and
// nothing is to be sent.
func (r *Runtime) openReply(src int, dep agas.GID, start time.Time) (agas.GID, *lco.Future) {
	fut := lco.NewFuture()
	node := noDep
	if d := r.dist; d != nil && !dep.IsNil() {
		if n, ok := d.lmap.NodeOf(int(dep.Home)); ok && n != d.node {
			node = n
		}
	}
	seq, ok := r.replies[src].open(r.NodeID(), fut, start, node)
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
	return r.openReply(loc, agas.Nil, time.Time{})
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
