package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// distState is the runtime's view of the multi-node machine: the frame
// transport, the locality→node map, and the cross-node accounting that
// extends quiescence detection over the wire.
//
// Accounting model: a parcel is a one-way message — nothing acknowledges
// it. The per-peer sent/recv totals are the one ledger of parcels in
// flight (see snapshot for the ordering rules that make them sound), and
// global quiescence is detected with a Mattern-style two-wave probe: all
// nodes report zero pending work and identical, balanced send/receive
// totals across two consecutive waves.
type distState struct {
	rt   *Runtime
	tr   transport.Transport
	node int
	lmap *agas.LocalityMap
	home int // first resident locality; anchors failure accounting

	// peerTab is the per-peer lane state: parcel counters, liveness, and
	// the phi detector. It grows copy-on-write as nodes join.
	peerTab atomic.Pointer[[]*peerState]
	growMu  sync.Mutex

	// mb is the membership protocol state; nil when the transport cannot
	// grow (a fixed machine).
	mb *memberState

	// ourTable is the action table this node announced in its hello (each
	// peer's own announcement lives in its peerState); internedSent counts
	// the parcel frames encoded against it (px.wire.interned_sent).
	ourTable     wire.SendTable
	internedSent atomic.Uint64

	drainMu  sync.Mutex
	drainSeq uint64
	drains   map[uint64]chan drainReply
	departed map[int]drainReply // final totals of nodes that said goodbye

	// laneTr is non-nil when the transport shards peer pairs across
	// several connections (transport.LaneTransport); lanes caches its lane
	// count. Parcel traffic is spread across lanes by destination-GID
	// affinity (laneOf); control frames ride lane 0.
	laneTr transport.LaneTransport
	lanes  int

	haltOnce sync.Once
	halt     chan struct{}
}

type drainReply struct {
	node       int
	pending    int64
	sent, recv uint64
	fp         uint64 // replier's membership fingerprint
}

func newDistState(r *Runtime, tr transport.Transport, node int, lmap *agas.LocalityMap) *distState {
	hr, _ := lmap.NodeRange(node)
	d := &distState{
		rt:       r,
		tr:       tr,
		node:     node,
		lmap:     lmap,
		home:     hr.Lo,
		drains:   make(map[uint64]chan drainReply),
		departed: make(map[int]drainReply),
		halt:     make(chan struct{}),
	}
	d.lanes = 1
	if lt, ok := tr.(transport.LaneTransport); ok {
		d.laneTr = lt
		d.lanes = lt.Lanes()
	}
	tab := make([]*peerState, tr.Nodes())
	for i := range tab {
		tab[i] = &peerState{}
	}
	d.peerTab.Store(&tab)
	return d
}

// onFrame is the transport receive handler. It runs on transport read
// goroutines, and a reader never waits on a lane: a reader waiting on its
// own node's lane while the peer's reader does the same is a deadlock
// once both socket buffers fill. A reader may Send and TrySendLane, which
// never wait, and never SendLane, which may. So the control arms (drain
// replies, moved hints) answer inline with Send, and the parcels a reader
// dispatches itself — replies and direct actions, migration's installs
// and directory commits among them (see direct.go) — send theirs through
// sendParcel's reader path, which hands a send a full lane refuses to a
// task.
func (d *distState) onFrame(from int, frame []byte) {
	// A death verdict is final: frames from the declared-dead are dropped,
	// so a zombie (or a healed partition) cannot re-enter the accounting.
	if d.peerDead(from) {
		return
	}
	// Count the frame before dispatch: the death check measures silence
	// across ALL lanes of a peer, so any frame kind on any lane vetoes a
	// pending verdict (see memberState.check). Every parcel read from one
	// peer takes the same shard, so the peer's read goroutines pick once,
	// not once per frame. Without the sender's announcement (its hello was
	// rejected) the table stays nil, and a parcel naming a table position
	// fails to decode.
	env := wire.Env{Width: d.lmap.Localities(), Shard: from % parcel.Shards}
	if ps := d.peer(from); ps != nil {
		ps.frames.Add(1)
		env.Table = ps.table.Load()
	}
	m, err := wire.Decode(frame, env)
	if err != nil {
		if m.Kind == wire.Parcel {
			// The sender counted this frame on the lane: count it here too,
			// though there is nothing to deliver, or the machine never
			// balances.
			d.countParcel(from)
		}
		d.rt.recordError(fmt.Errorf("core: node %d: %w", from, err))
		return
	}
	switch m.Kind {
	case wire.Parcel:
		d.onParcel(from, m.P)
	case wire.Moved:
		// The hint is recorded for names homed elsewhere and applied as a
		// late directory commit for names homed here (agas.Repoint).
		if m.Loc >= 0 && m.Loc < d.rt.Localities() {
			d.rt.agas.Repoint(m.GID, m.Loc, m.Gen)
		}
	case wire.Drain:
		d.replyDrain(from, m.ID)
	case wire.DrainReply:
		d.onDrainReply(from, m)
	case wire.Goodbye:
		d.drainMu.Lock()
		d.departed[from] = drainReply{node: from, sent: m.Sent, recv: m.Recv}
		d.drainMu.Unlock()
		// A clean departure ends monitoring: the peer's coming silence must
		// not read as a death (see memberState.check and declareDead).
		if ps := d.ensurePeer(from); ps != nil {
			ps.departed.Store(true)
		}
	case wire.Halt:
		d.haltOnce.Do(func() { close(d.halt) })
	case wire.Beat:
		d.onBeat(from)
	case wire.Dead:
		d.onDead(from, m.Node)
	case wire.Load:
		d.onLoad(m.Loads)
	}
}

// countParcel notes one parcel frame received from a peer, decodable or
// not: the quiescence sums count frames, as the sender's side does.
func (d *distState) countParcel(from int) {
	if ps := d.ensurePeer(from); ps != nil {
		ps.recv.Add(1)
	}
}

// onParcel delivers one decoded cross-node parcel. The work unit is
// charged before the frame is counted (see snapshot), and nothing is sent
// back: the parcel is a one-way message.
//
// p is a pooled value that owns its bytes (the frame was the transport's
// reused read buffer); ownership flows down the delivery path, which
// releases it when dispatch completes.
func (d *distState) onParcel(from int, p *parcel.Parcel) {
	d.rt.addWork()
	d.countParcel(from)
	owner, gen, err := d.resolveHere(p)
	d.rt.emitSpan(trace.SpanWireRecv, d.home, &p.Trace, p.Action)
	d.deliver(from, p, owner, gen, err)
}

// resolveHere reports this node's first-hand knowledge of a destination —
// the owning locality and its generation, a forwarding pointer answering
// with the next hop. It deliberately never reads a hint, since a
// second-hand verdict must not be taught onward as a "moved" verdict.
// Unknown names report the error.
func (d *distState) resolveHere(p *parcel.Parcel) (owner int, gen uint64, err error) {
	return d.rt.agas.LocateAt(int(p.Shard), p.Dest)
}

// deliver routes a parcel received from node from — already resolved to
// (owner, gen, err) — to its resident locality, or, when the object is not
// hosted here, re-routes it through the standard forwarding path
// (hop-bounded, traced, delayed); a forwarding pointer or the home
// directory makes the chase a single hop. A forwarded parcel whose
// resolution is versioned also teaches its stale sender where the object
// went; gen 0 — an unversioned route-toward-home guess — teaches nothing.
// A reply or a direct action for a resident target runs here, on the read
// goroutine (runsDirect); anything else is queued on its locality.
// Runs with one work unit charged; every path releases it exactly once.
func (d *distState) deliver(from int, p *parcel.Parcel, owner int, gen uint64, err error) {
	r := d.rt
	if err != nil {
		r.deliverFailure(d.home, p, err)
		return
	}
	node, known := d.lmap.NodeOf(owner)
	if !known {
		r.deliverFailure(d.home, p, fmt.Errorf("core: owner locality %d outside machine: %w", owner, agas.ErrUnknown))
		return
	}
	if node != d.node {
		if gen > 0 {
			d.hintMoved(from, p.Dest, owner, gen)
		}
		r.forward(d.home, p, true) // charges the new routing leg...
		r.doneWork()               // ...so this one is released here
		return
	}
	if r.runsDirect(owner, p) {
		r.sampleArrival(owner, p)
		r.runInline(owner, p, true)
		return
	}
	r.enqueue(owner, p, true)
}

// hintMoved tells node that g now lives at owner under generation gen, so
// the stale sender records the hint before its next parcel. It is only a
// hint: unheard, the sender stays stale and its next parcel is forwarded
// (and hinted) again. It runs on the read goroutine and sends with Send,
// which never waits.
func (d *distState) hintMoved(node int, g agas.GID, owner int, gen uint64) {
	_ = d.tr.Send(node, wire.EncodeMoved(g, owner, gen))
}

// laneOf affinity-hashes a destination GID onto a transport lane. All
// parcels for one object ride one lane, so the transport's per-lane FIFO
// preserves per-object ordering while independent objects spread across
// lanes and stop queueing behind one stream's head-of-line. The mix is a
// Fibonacci multiply over the GID's distinguishing words — Seq alone would
// stripe consecutively-allocated objects onto consecutive lanes, which is
// fine, but Home must participate so two nodes' object zero don't collide
// systematically.
func (d *distState) laneOf(g agas.GID) int {
	if d.lanes <= 1 {
		return 0
	}
	h := (g.Seq ^ uint64(g.Home)<<32 ^ uint64(g.Kind)) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(d.lanes))
}

// sendLane delivers a parcel frame on a transport lane (any lane is lane
// 0 on a laneless transport, whose Send never waits). SendLane may wait
// for room on the lane, so a caller that must not wait (noWait) takes
// TrySendLane, which refuses instead. The lane redials a broken connection
// itself, so a single transient break cannot lose a frame between two
// healthy nodes.
func (d *distState) sendLane(node, lane int, frame []byte, noWait bool) error {
	switch {
	case d.laneTr == nil:
		return d.tr.Send(node, frame)
	case noWait:
		return d.laneTr.TrySendLane(node, lane, frame)
	}
	return d.laneTr.SendLane(node, lane, frame)
}

// sendParcel ships p to node: count, send, and release the caller's work
// unit for p once the transport has taken the frame (see snapshot). It
// rests on the wire's one delivery guarantee, which LCO triggers need too:
// frames on a lane arrive in order, and none is lost while the peer lives.
// A frame the transport refuses to take fails p as any routing error does
// (failParcel); a frame taken but dropped because its peer became
// unreachable, like any frame in flight to a node later declared dead, is
// released by the ledger (liveTotals), not retried.
// sendParcel consumes p: the encode buffer returns to its pool once the
// transport has taken the bytes, and the parcel itself is released unless
// it was recycled into the failure path.
//
// A caller that must not wait (noWait), a read goroutine or a direct
// action run inline, never waits for room on a lane: when the lane is
// full the refusal is booked like any other, and the send, with p and its
// work unit, moves to a task on src, which sends again and may wait.
func (d *distState) sendParcel(node, src int, p *parcel.Parcel, noWait bool) {
	ps := d.ensurePeer(node)
	if ps == nil {
		d.rt.deliverFailure(src, p, fmt.Errorf("core: node %d outside machine: %w", node, agas.ErrUnknown))
		return
	}
	// A parcel toward the declared-dead fails fast with the typed loss
	// error instead of dialing a corpse. A death racing past this check
	// needs no undoing: the lane's counts leave the sums with the verdict.
	if ps.dead.Load() {
		d.rt.deliverFailure(src, p, fmt.Errorf("core: node %d: %w", node, agas.ErrNodeLost))
		return
	}
	// A name too long for the wire is one no node registered: the parcel
	// fails here as it would at its destination.
	if name, ok := wire.OversizedAction(p); ok {
		d.rt.deliverFailure(src, p, errUnknownAction(name))
		return
	}
	// The wire.send span is emitted before encoding so the trailer names
	// it as the receiving hop's parent.
	d.rt.emitSpan(trace.SpanWireSend, src, &p.Trace, p.Action)
	// Actions are table positions once the peer's hello has arrived and
	// spelled out before: a peer whose hello we hold is one that already
	// holds ours, while a node may send before its peer's hello reaches it.
	var tbl wire.SendTable
	if ps.table.Load() != nil {
		tbl = d.ourTable
		d.internedSent.Add(1)
	}
	w := parcel.GetWire()
	w.B = wire.AppendParcel(w.B, p, tbl)
	ps.sent.Add(1)
	// Parcels ride the lane their destination hashes to; per-object order
	// is the per-lane FIFO.
	err := d.sendLane(node, d.laneOf(p.Dest), w.B, noWait)
	// The transport copied w.B, so nothing references it any more.
	parcel.PutWire(w)
	if err != nil {
		// The peer will never count this frame. Counters only grow, so the
		// refusal is booked on this lane's receive side instead of taken
		// back off sent.
		ps.returned.Add(1)
		if noWait && errors.Is(err, transport.ErrLaneFull) {
			d.rt.mustPost(d.rt.loc(src).Post(func() { d.sendParcel(node, src, p, false) }))
			return
		}
		d.rt.deliverFailure(src, p, fmt.Errorf("core: transport to node %d: %w", node, err))
		return
	}
	d.rt.slow.ParcelsSent.AddAt(int(p.Shard), 1)
	parcel.Release(p)
	d.rt.doneWork()
}

// liveTotals sums this node's parcel counters over lanes to peers not
// declared dead. Traffic exchanged with a corpse can never balance — its
// side of the ledger died with it — so quiescence sums live lanes only;
// both ends of a dead lane exclude it symmetrically because the death
// verdict is gossiped machine-wide. That exclusion — not any released work
// unit — is what lets Wait return after a death. A send the transport
// refused counts as received back on its own lane.
func (d *distState) liveTotals() (sent, recv uint64) {
	tab := *d.peerTab.Load()
	for n, ps := range tab {
		if n == d.node || ps == nil || ps.dead.Load() {
			continue
		}
		sent += uint64(ps.sent.Load())
		recv += uint64(ps.recv.Load() + ps.returned.Load())
	}
	return sent, recv
}

// wireTotals sums the parcel frames the transport accepted from this node
// and the ones it delivered to it, over every lane, dead ones included
// (px.wire.sent, px.wire.recv).
func (d *distState) wireTotals() (sent, recv int64) {
	for _, ps := range *d.peerTab.Load() {
		if ps != nil {
			sent += ps.sent.Load() - ps.returned.Load()
			recv += ps.recv.Load()
		}
	}
	return sent, recv
}

// snapshot is this node's accounting as one probe wave sees it: the live
// totals, read first, then the pending work count. A parcel in flight is
// proven by the totals alone (Mattern's four-counter method: two waves
// that both read every node idle and the same balanced sums bracket an
// instant with no message in flight and no node active), given three
// ordering rules:
//
//   - the sender counts, then sends, then releases its work unit, so an
//     unsent parcel is covered by the unit and a sent one by the count;
//   - the receiver charges its work unit, then counts, so a snapshot that
//     sees the receipt also sees the unit or the finished work;
//   - counters never decrease, so a wave cannot read a send and a later
//     wave its undoing with a real message slipped in between.
func (d *distState) snapshot() (pending int64, sent, recv uint64) {
	sent, recv = d.liveTotals()
	return d.rt.pending.Load(), sent, recv
}

// replyDrain answers a quiescence probe with this node's snapshot,
// stamped with its membership fingerprint so a prober on a divergent view
// invalidates the wave.
func (d *distState) replyDrain(to int, seq uint64) {
	pending, sent, recv := d.snapshot()
	buf := wire.EncodeDrainReply(seq, pending, sent, recv, d.lmap.Fingerprint())
	if err := d.tr.Send(to, buf); err != nil {
		d.rt.recordError(fmt.Errorf("core: drain reply to node %d: %w", to, err))
	}
}

func (d *distState) onDrainReply(from int, m wire.Msg) {
	d.drainMu.Lock()
	ch, ok := d.drains[m.ID]
	d.drainMu.Unlock()
	if ok {
		select {
		case ch <- drainReply{node: from, pending: m.Pending, sent: m.Sent, recv: m.Recv, fp: m.FP}:
		default: // probe already abandoned
		}
	}
}

// probe runs one drain wave: ask every live peer for its snapshot and
// combine with our own. ok is false when a peer could not be reached, did
// not answer in time, answered from a divergent membership view, or the
// membership changed mid-wave (the wave is then retried).
func (d *distState) probe() (allZero bool, sent, recv uint64, ok bool) {
	fp := d.lmap.Fingerprint()
	d.drainMu.Lock()
	d.drainSeq++
	seq := d.drainSeq
	ch := make(chan drainReply, d.lmap.Nodes())
	d.drains[seq] = ch
	gone := make(map[int]drainReply, len(d.departed))
	for n, rep := range d.departed {
		gone[n] = rep
	}
	d.drainMu.Unlock()
	defer func() {
		d.drainMu.Lock()
		delete(d.drains, seq)
		d.drainMu.Unlock()
	}()

	probeFrame := wire.EncodeDrain(seq)

	pending, sent, recv := d.snapshot()
	allZero = pending == 0
	need := make(map[int]bool)
	ok = true
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node || d.peerDead(n) {
			continue
		}
		if rep, departed := gone[n]; departed {
			// A clean departure's stored totals predate any later death,
			// so they may still count a since-dead lane; the machine-wide
			// sums then never rebalance. Accepted: a crash after a clean
			// shutdown has begun is outside the supported envelope.
			sent += rep.sent
			recv += rep.recv
			continue
		}
		if err := d.tr.Send(n, probeFrame); err != nil {
			ok = false
			continue
		}
		need[n] = true
	}
	// Collect one answer per probed peer. A peer that departs mid-probe
	// never answers; its goodbye record stands in for the reply. A peer
	// declared dead mid-probe invalidates the wave — the next wave skips
	// its lane on both sides.
	timeout := time.After(500 * time.Millisecond)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for len(need) > 0 {
		select {
		case rep := <-ch:
			if !need[rep.node] {
				continue // duplicate or stale
			}
			if rep.fp != fp {
				return false, 0, 0, false // divergent membership view
			}
			delete(need, rep.node)
			if rep.pending != 0 {
				allZero = false
			}
			sent += rep.sent
			recv += rep.recv
		case <-tick.C:
			d.drainMu.Lock()
			for n := range need {
				if rep, departed := d.departed[n]; departed {
					delete(need, n)
					sent += rep.sent
					recv += rep.recv
				}
			}
			d.drainMu.Unlock()
			for n := range need {
				if d.peerDead(n) {
					return false, 0, 0, false
				}
			}
		case <-timeout:
			return false, 0, 0, false
		}
	}
	if d.lmap.Fingerprint() != fp {
		return false, 0, 0, false // membership changed under the wave
	}
	return allZero, sent, recv, ok
}

// waitGlobal blocks until the whole machine is quiescent: this node is
// locally quiet and two consecutive probe waves observe every node with
// zero pending work and unchanged, balanced cross-node totals (Mattern's
// four-counter method, collapsed to machine-wide sums).
func (d *distState) waitGlobal() {
	var prevSent, prevRecv uint64
	stable := false
	backoff := 100 * time.Microsecond
	for {
		d.rt.waitLocal()
		allZero, sent, recv, ok := d.probe()
		if ok && allZero && sent == recv {
			if stable && sent == prevSent && recv == prevRecv {
				return
			}
			stable, prevSent, prevRecv = true, sent, recv
			continue // immediately run the confirming wave
		}
		stable = false
		time.Sleep(backoff)
		if backoff *= 2; backoff > 10*time.Millisecond {
			backoff = 10 * time.Millisecond
		}
	}
}

// goodbye announces this node's departure with its final totals so peers
// can complete quiescence detection without it. Peers that already said
// goodbye themselves are skipped — retrying into their closed listeners
// would burn the whole dial budget for nothing.
func (d *distState) goodbye() {
	buf := wire.EncodeGoodbye(d.liveTotals())
	d.drainMu.Lock()
	gone := make(map[int]bool, len(d.departed))
	for n := range d.departed {
		gone[n] = true
	}
	d.drainMu.Unlock()
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n != d.node && !gone[n] && !d.peerDead(n) {
			d.tr.Send(n, buf) // best effort: the peer may be gone anyway
		}
	}
}

// requestHalt broadcasts a cooperative halt and trips the local halt
// channel. A halt that cannot be delivered leaves that peer running — it
// is recorded, but only the operator can free an unreachable node.
func (d *distState) requestHalt() {
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n != d.node && !d.peerDead(n) {
			if err := d.tr.Send(n, wire.EncodeHalt()); err != nil {
				d.rt.recordError(fmt.Errorf("core: halt to node %d: %w", n, err))
			}
		}
	}
	d.haltOnce.Do(func() { close(d.halt) })
}
