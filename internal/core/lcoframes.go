package core

// Cross-node LCO trigger frames. Triggers whose target lives on another
// node ride dedicated fLCOSet/fLCOFire frames through the transport's
// group-commit batching. Unlike parcels — at-most-once by design — LCO
// triggers are an acknowledging protocol: the sender holds each frame in a
// pending table and retransmits it until the matching fLCOAck arrives, so
// a frame lost to fault injection is recovered, and the target's
// idempotent trigger IDs absorb the duplicates retransmission (or
// duplication faults) creates.
//
// Accounting: the sender's work unit for a trigger stays charged until the
// peer acknowledges it, and the receiver charges its own unit before
// acknowledging, so an in-flight trigger is counted by at least one node at
// every instant and Wait cannot declare quiescence across a trigger in
// flight. (Parcels, which nothing acknowledges, are covered by the per-peer
// totals instead — see distState.snapshot.) The acknowledgement is sent
// inline, from the transport's read goroutine.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// lcoRetryTick is the pending-table scan interval; lcoRetryAfter is how
// long a frame may stay unacknowledged before it is retransmitted.
const (
	lcoRetryTick  = 10 * time.Millisecond
	lcoRetryAfter = 25 * time.Millisecond
	// lcoGiveUpAttempts bounds retransmission (~30s: attempts only count
	// when a frame has sat unacknowledged for lcoRetryAfter, and the tick
	// aligns retransmits ~30ms apart): past it the peer is declared
	// unreachable, the work unit released, and the loss recorded — the
	// same stance migration RPCs take.
	lcoGiveUpAttempts = 1000
)

// lcoPending is one unacknowledged outbound trigger frame.
type lcoPending struct {
	node     int
	lane     int // transport lane (destination-GID affinity, like parcels)
	frame    []byte
	lastSend time.Time
	attempts int
}

// lcoSendState is the sender half of the acknowledging trigger protocol.
type lcoSendState struct {
	mu      sync.Mutex
	pend    map[uint64]*lcoPending
	started bool
	stopped bool // Shutdown ran: no new pending entries, no loop restart
	stop    chan struct{}
	done    chan struct{}

	sent    atomic.Uint64 // logical triggers shipped (first transmissions)
	recv    atomic.Uint64 // trigger frames received (duplicates included)
	retried atomic.Uint64 // retransmissions of unacknowledged frames
}

// LCOTriggerStats reports the cross-node trigger counters: logical
// triggers sent, trigger frames received (fault-injected duplicates
// included), and retransmissions of unacknowledged frames. Soak tests
// assert retried > 0 to prove drop injection engaged the recovery path.
func (r *Runtime) LCOTriggerStats() (sent, recv, retried uint64) {
	if r.dist == nil {
		return 0, 0, 0
	}
	s := &r.dist.lco
	return s.sent.Load(), s.recv.Load(), s.retried.Load()
}

// sendLCOTrigger ships one identified trigger to the node owning its
// target, holding the caller's work unit until the peer acknowledges.
// fired selects the fLCOFire frame type (a resolution delivery) over
// fLCOSet (an inbound trigger); the receive path treats both identically.
// hops is the forwarding budget already spent (0 for a fresh trigger).
// tc is the trace context the trigger rides for (zero for untraced
// triggers); retransmissions reuse the encoded frame verbatim.
func (d *distState) sendLCOTrigger(node int, tid uint64, op TrigOp, slot uint32, hops int, g agas.GID, value []byte, fired bool, tc parcel.TraceCtx) {
	kind := fLCOSet
	if fired {
		kind = fLCOFire
	}
	if d.peerDead(node) {
		// The target's node is already declared dead: retransmitting into
		// the void would pin a work unit until the give-up bound. Fail now.
		d.rt.recordError(fmt.Errorf("core: LCO trigger %d to node %d: %w", tid, node, agas.ErrNodeLost))
		return
	}
	d.rt.emitSpan(trace.SpanWireSend, d.home, &tc, ActionLCOTrigger)
	frame := encodeLCOTrigger(kind, tid, op, slot, hops, g, value, tc)
	// Triggers ride the same lane the target object's parcels do, so a
	// parcel and the trigger it races stay mutually ordered.
	pe := &lcoPending{node: node, lane: d.laneOf(g), frame: frame, lastSend: time.Now()}
	s := &d.lco
	s.mu.Lock()
	if s.stopped {
		// A trigger racing with (or arriving after) Shutdown: restarting
		// the retry loop here would leak a goroutine nothing will ever
		// stop, retransmitting into a closed transport. Reject instead.
		s.mu.Unlock()
		d.rt.recordError(fmt.Errorf("core: LCO trigger %d to node %d after shutdown", tid, node))
		return
	}
	if s.pend == nil {
		s.pend = make(map[uint64]*lcoPending)
	}
	if _, dup := s.pend[tid]; dup {
		// The same logical trigger is already in flight from this node —
		// a fault-duplicated or retransmitted frame being re-forwarded.
		// The existing entry guarantees delivery and holds the one work
		// unit its ack releases; a second entry under the same tid would
		// charge a unit the single ack can never release.
		s.mu.Unlock()
		return
	}
	d.rt.addWork()
	s.pend[tid] = pe
	if !s.started {
		s.started = true
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go d.lcoRetryLoop(s.stop, s.done)
	}
	s.mu.Unlock()
	s.sent.Add(1)
	d.xmitLCO(pe)
}

// xmitLCO transmits (or retransmits) a pending trigger frame, applying
// the fault injector's verdict: a dropped frame is simply not sent — the
// retry loop recovers it — and a duplicated one is sent twice, exercising
// the receiver's dedup. Transport errors are left to the retry loop too.
func (d *distState) xmitLCO(pe *lcoPending) {
	copies := 1
	if d.rt.faults != nil {
		copies = d.rt.faults.verdict(true)
	}
	for i := 0; i < copies; i++ {
		if err := d.sendRetryLane(pe.node, pe.lane, pe.frame); err != nil {
			return
		}
	}
}

// lcoRetryLoop retransmits unacknowledged trigger frames until stopped.
// One loop serves the whole runtime; it starts with the first cross-node
// trigger and stops at Shutdown.
func (d *distState) lcoRetryLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(lcoRetryTick)
	defer t.Stop()
	s := &d.lco
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		var resend []*lcoPending
		var expired []uint64
		s.mu.Lock()
		for tid, pe := range s.pend {
			if now.Sub(pe.lastSend) < lcoRetryAfter {
				continue
			}
			pe.attempts++
			if pe.attempts > lcoGiveUpAttempts {
				expired = append(expired, tid)
				continue
			}
			pe.lastSend = now
			resend = append(resend, pe)
		}
		for _, tid := range expired {
			delete(s.pend, tid)
		}
		s.mu.Unlock()
		for _, pe := range resend {
			s.retried.Add(1)
			d.xmitLCO(pe)
		}
		for _, tid := range expired {
			d.rt.recordError(fmt.Errorf("core: LCO trigger %d unacknowledged after %d attempts", tid, lcoGiveUpAttempts))
			d.rt.doneWork()
		}
	}
}

// dropPendTo abandons every pending trigger addressed to a node declared
// dead and returns how many were dropped. Each entry holds one work unit
// whose ack can no longer arrive; the caller (declareDead) releases them,
// else Wait would hang until the give-up bound (~30s per frame).
func (d *distState) dropPendTo(node int) int {
	s := &d.lco
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for tid, pe := range s.pend {
		if pe.node == node {
			delete(s.pend, tid)
			n++
		}
	}
	return n
}

// stopLCO shuts the retry loop down for good: stopped rejects any
// trigger still racing in, so the loop can never restart with channels
// nothing would close. Pending entries (there are none after a clean
// Wait) are abandoned.
func (d *distState) stopLCO() {
	s := &d.lco
	s.mu.Lock()
	started := s.started
	stop, done := s.stop, s.done
	s.started = false
	s.stopped = true
	s.mu.Unlock()
	if started {
		close(stop)
		<-done
	}
}

// sendTriggerParcel re-ships a remote-destined px.lco.trigger parcel as
// an acknowledged fLCOSet frame: a trigger that discovers mid-route that
// its target lives on — or migrated to — another node keeps the
// acknowledging protocol's reliability on every hop, instead of degrading
// to at-most-once parcel delivery past the first one. Each forward leg is
// retransmitted until the next node acks, and the target's dedup set
// absorbs whatever duplicates the hops create. Consumes p, releasing its
// routing leg's work unit after the frame's own unit is charged.
func (d *distState) sendTriggerParcel(node, src int, p *parcel.Parcel) {
	rd := parcel.NewReader(p.Args)
	tid := rd.Uint64()
	op := TrigOp(rd.Uint64())
	slot := uint32(rd.Uint64())
	value := rd.Bytes()
	if err := rd.Err(); err != nil {
		d.rt.deliverFailure(src, p, fmt.Errorf("core: malformed trigger args: %w", err))
		return
	}
	d.sendLCOTrigger(node, tid, op, slot, p.Hops, p.Dest, value, false, p.Trace)
	parcel.Release(p)
	d.rt.doneWork()
}

// onLCOTrigger handles one received fLCOSet/fLCOFire frame: charge a work
// unit, acknowledge, and hand the trigger to the standard parcel delivery
// path — which parks it at a migration fence or chases a forwarding
// pointer exactly as it would any parcel. The acknowledgement covers only
// this hop: a target that turns out to live on another node re-enters the
// acknowledging protocol as a fresh frame on the next leg (route hands
// remote-destined trigger parcels to sendTriggerParcel), so reliability
// is preserved hop by hop rather than ending at the first ack. Duplicate
// deliveries reach the target and are absorbed by its dedup set, so the
// acknowledgement needs no receive-side dedup of its own.
func (d *distState) onLCOTrigger(from int, m frameMsg) {
	d.lco.recv.Add(1)
	d.rt.addWork()
	if err := d.sendRetry(from, encodeID(fLCOAck, m.id)); err != nil {
		// The sender keeps retrying the trigger; we will re-ack the
		// duplicate. Record for diagnosis only.
		d.rt.recordError(fmt.Errorf("core: LCO ack to node %d: %w", from, err))
	}
	d.rt.emitSpan(trace.SpanWireRecv, d.home, &m.tc, ActionLCOTrigger)
	// encodeTriggerArgs copies the value out of the transport's read buffer.
	p := parcel.Acquire(m.g, ActionLCOTrigger, encodeTriggerArgs(m.id, m.op, m.slot, m.body))
	p.Hops = m.hops // the frame carries the chain's spent forwarding budget
	p.Trace = m.tc  // the trigger keeps its chain's trace across the hop
	owner, _, rerr := d.resolveHere(m.g)
	d.deliver(from, p, owner, 0, rerr)
}

// onLCOAck resolves the pending entry for an acknowledged trigger,
// releasing the work unit held since sendLCOTrigger. Duplicate acks (the
// receiver re-acks every duplicate delivery) find no entry and are
// ignored.
func (d *distState) onLCOAck(tid uint64) {
	s := &d.lco
	s.mu.Lock()
	pe := s.pend[tid]
	if pe != nil {
		delete(s.pend, tid)
	}
	s.mu.Unlock()
	if pe != nil {
		d.rt.doneWork()
	}
}
