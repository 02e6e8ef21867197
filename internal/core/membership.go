package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MembershipConfig tunes elastic membership and failure detection. The
// subsystem is on whenever the transport supports it (it implements
// transport.MemberTransport, i.e. the machine can grow): each
// node beats every HeartbeatInterval, feeds peers' beats into per-peer
// phi-accrual detectors, and declares a peer dead when its accrued
// suspicion crosses phi 8 AND it has been silent for at least
// DeadAfter — the hard floor rides out scheduler stalls that pure phi
// would misread on loaded CI machines.
type MembershipConfig struct {
	// HeartbeatInterval is the beat period (default 250ms).
	HeartbeatInterval time.Duration
	// DeadAfter is the minimum silence before a suspect peer may be
	// declared dead (default 3s, floored at 4x HeartbeatInterval).
	DeadAfter time.Duration
}

// suspectPhi is the phi value at which a peer becomes deathly suspect:
// odds of a false positive one in 10^8 under the observed arrival
// distribution. A suspect peer receives no migrated objects either.
const suspectPhi = 8

// withDefaults fills zero fields with production defaults.
func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if min := 4 * c.HeartbeatInterval; c.DeadAfter < min {
		c.DeadAfter = min
	}
	return c
}

// IsNodeLost reports whether err means a remote node died under an
// operation. It matches both the typed agas.ErrNodeLost and its message
// carried across the wire inside a remote failure string.
func IsNodeLost(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, agas.ErrNodeLost) {
		return true
	}
	return strings.Contains(err.Error(), agas.ErrNodeLost.Error())
}

// peerState is this node's per-peer wire accounting and liveness record.
// The parcel counters are per lane so quiescence can sum live lanes only;
// none of them ever decreases (see distState.snapshot).
type peerState struct {
	sent     atomic.Int64 // parcels counted toward this peer, refused sends included
	recv     atomic.Int64 // parcels received from this peer
	returned atomic.Int64 // sends to this peer the transport refused: never to be received there
	dead     atomic.Bool  // declared dead; the first to flip it runs the cleanup
	departed atomic.Bool  // peer said goodbye: clean shutdown, not a death
	// unreachable is the wall-clock nanosecond a transport lane first
	// dropped frames taken for this peer (0: never); see onUnreachable.
	unreachable atomic.Int64
	det         atomic.Pointer[transport.PhiDetector]
	// table is the action table the peer announced in its hello: what its
	// fParcel frames decode against. Nil until the hello arrives; the last
	// hello wins.
	table atomic.Pointer[wire.RecvTable]

	// frames counts the frames of ANY kind received from this peer,
	// across every transport lane. The death check consults it alongside
	// the beat detector: on a sharded transport the beat rides lane 0, and
	// a peer whose lane-0 stream is wedged behind a reconnect is not dead
	// while its parcel lanes are demonstrably alive — any-lane traffic
	// vetoes the silence verdict. A count costs a frame one atomic add
	// where a clock read cost more.
	frames atomic.Uint64
	// framesSeen is frames as the death check last read it, and framesAt
	// the check's tick at which it last changed. Only the membership loop
	// touches them.
	framesSeen uint64
	framesAt   time.Time
}

// detector returns the peer's phi detector, creating it on first use.
func (ps *peerState) detector() *transport.PhiDetector {
	if det := ps.det.Load(); det != nil {
		return det
	}
	det := transport.NewPhiDetector()
	if ps.det.CompareAndSwap(nil, det) {
		return det
	}
	return ps.det.Load()
}

// peer returns the state for node n, or nil if none exists yet.
func (d *distState) peer(n int) *peerState {
	tab := *d.peerTab.Load()
	if n < 0 || n >= len(tab) {
		return nil
	}
	return tab[n]
}

// ensurePeer returns the state for node n, growing the table copy-on-
// write if needed. Returns nil only for insane IDs.
func (d *distState) ensurePeer(n int) *peerState {
	if ps := d.peer(n); ps != nil {
		return ps
	}
	if n < 0 || n >= transport.MaxJoinNodes {
		return nil
	}
	d.growMu.Lock()
	defer d.growMu.Unlock()
	old := *d.peerTab.Load()
	if n < len(old) {
		return old[n]
	}
	tab := make([]*peerState, n+1)
	copy(tab, old)
	for i := len(old); i <= n; i++ {
		tab[i] = &peerState{}
	}
	d.peerTab.Store(&tab)
	return tab[n]
}

// peerDead reports whether node n has been declared dead.
func (d *distState) peerDead(n int) bool {
	ps := d.peer(n)
	return ps != nil && ps.dead.Load()
}

// memberState runs this node's membership protocol: the beat loop, the
// per-peer phi checks, death declaration with its cleanup fan-out, and
// join admission.
type memberState struct {
	d        *distState
	cfg      MembershipConfig
	selfAddr string // this node's dial address, announced in the hello

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	excomm   atomic.Bool // this node itself was declared dead by a peer

	joinMu sync.Mutex // serializes join admissions

	deaths    atomic.Uint64
	joins     atomic.Uint64
	rehomes   atomic.Uint64 // localities adopted off dead nodes, machine-wide view
	beatsSent atomic.Uint64
	beatsRecv atomic.Uint64
}

func newMemberState(d *distState, cfg MembershipConfig, selfAddr string) *memberState {
	return &memberState{
		d:        d,
		cfg:      cfg.withDefaults(),
		selfAddr: selfAddr,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run is the membership loop: beat, then check, every interval.
func (m *memberState) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			if m.excomm.Load() {
				return
			}
			m.beat()
			m.check(now)
		}
	}
}

// stopLoop halts the membership loop and waits for it to exit.
func (m *memberState) stopLoop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// beat sends one heartbeat to every live peer in the map. Beats carry
// the sender's membership fingerprint so drift is observable; they ride
// the same frame service as parcels, so a kill a test injects on the
// wire mutes them too, exactly as a crashed node goes silent.
// On an otherwise idle machine the first beat is also what forces the lazy
// dial that exchanges hellos.
func (m *memberState) beat() {
	d := m.d
	frame := wire.EncodeBeat(d.lmap.Fingerprint())
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		if ps := d.peer(n); ps != nil && (ps.dead.Load() || ps.departed.Load()) {
			continue
		}
		if d.tr.Send(n, frame) == nil {
			m.beatsSent.Add(1)
		}
	}
}

// check polls every monitored peer's detector and declares deaths. A peer
// is only ever declared dead on positive evidence of prior life: fewer
// than two beats observed means no interval history, so the detector
// abstains and the peer stays in the joining/benefit-of-the-doubt state.
func (m *memberState) check(now time.Time) {
	d := m.d
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		ps := d.peer(n)
		if ps == nil || ps.dead.Load() || ps.departed.Load() {
			continue
		}
		// Silence across every lane is measured from the tick at which
		// the peer's frame count last moved, so it is read at most one
		// tick late, which errs toward alive; DeadAfter is at least four
		// ticks.
		if c := ps.frames.Load(); c != ps.framesSeen {
			ps.framesSeen, ps.framesAt = c, now
		}
		// Frames a lane dropped are lost for good, so the machine cannot
		// balance until their peer is dead. The verdict waits DeadAfter,
		// so a peer that was leaving has its goodbye heard first.
		if at := ps.unreachable.Load(); at != 0 && now.Sub(time.Unix(0, at)) >= m.cfg.DeadAfter {
			m.declareDead(n, "unreachable: a lane dropped frames for it")
			continue
		}
		det := ps.det.Load()
		if det == nil || det.Samples() < 2 {
			continue
		}
		silent := now.Sub(det.LastHeartbeat())
		if silent < m.cfg.DeadAfter {
			continue
		}
		// Silence must hold across every lane, not just the beat stream:
		// a peer whose heartbeats are stuck behind a lane-0 reconnect but
		// whose parcel lanes still deliver is alive.
		if !ps.framesAt.IsZero() && now.Sub(ps.framesAt) < m.cfg.DeadAfter {
			continue
		}
		if det.Phi(now) < suspectPhi {
			continue
		}
		m.declareDead(n, fmt.Sprintf("silent %v, phi %.1f", silent.Round(time.Millisecond), det.Phi(now)))
	}
}

// declareDead transitions peer n to dead — which takes its lane out of the
// quiescence sums, so a Mattern Wait in progress unblocks — and runs the
// cleanup fan-out: re-home its localities in the membership map (firing
// adoption and shard-reinstall subscribers), fail every reply slot
// waiting on it, a migration's among them, and gossip the death so the verdict is
// authoritative machine-wide. Only the first transition does any of this;
// a death heard twice is a no-op, which bounds the gossip epidemic.
func (m *memberState) declareDead(n int, why string) {
	d := m.d
	if n == d.node {
		m.excommunicate()
		return
	}
	ps := d.ensurePeer(n)
	if ps == nil {
		return
	}
	// A peer that said goodbye shut down cleanly: its silence is expected,
	// not a death — locally suspected or gossiped. Its totals already live
	// in the departure records, so quiescence needs no exclusion either.
	if ps.departed.Load() {
		return
	}
	if !ps.dead.CompareAndSwap(false, true) {
		return
	}
	m.deaths.Add(1)
	if ev, ok := d.lmap.MarkDead(n); ok {
		m.rehomes.Add(uint64(len(ev.Moved)))
	}
	// Record the death before failing its waiters: one of them woken by
	// the verdict must find the death in Errors.
	d.rt.recordError(fmt.Errorf("core: node %d declared dead (%s): %w", n, why, agas.ErrNodeLost))
	d.rt.failLostWaiters(n)

	// Shoot-the-other-node gossip: the death verdict propagates to every
	// live peer so the machine converges on one view. Receivers that
	// already marked n dead return early above.
	frame := wire.EncodeDead(n)
	for _, p := range d.lmap.LiveNodes() {
		if p == d.node || p == n {
			continue
		}
		_ = d.tr.Send(p, frame)
	}
}

// excommunicate handles this node being declared dead by a live peer: the
// machine has moved on without us, and partition heal is unsupported. We
// mark every peer dead locally so no lane is left to balance and a local
// Wait/Shutdown can complete, then stop beating. The process keeps
// running so its operator can read metrics and exit cleanly.
func (m *memberState) excommunicate() {
	if !m.excomm.CompareAndSwap(false, true) {
		return
	}
	d := m.d
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node {
			continue
		}
		ps := d.ensurePeer(n)
		if ps == nil || !ps.dead.CompareAndSwap(false, true) {
			continue
		}
		d.rt.failLostWaiters(n)
	}
	d.rt.recordError(fmt.Errorf("core: this node was declared dead by the machine: %w", agas.ErrNodeLost))
}

// onBeat handles a heartbeat frame: proof of life for the sender.
func (d *distState) onBeat(from int) {
	ps := d.ensurePeer(from)
	if ps == nil {
		return
	}
	ps.detector().Heartbeat(time.Now())
	if d.mb != nil {
		d.mb.beatsRecv.Add(1)
	}
}

// onUnreachable is the transport's report that a lane dropped frames
// taken for node n because n could not be reached. It only stamps the
// peer; the membership check turns the stamp into a death verdict, which
// releases the dropped frames from the ledger (see memberState.check).
func (d *distState) onUnreachable(n int) {
	if ps := d.ensurePeer(n); ps != nil {
		ps.unreachable.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// onDead handles a gossiped death verdict. The verdict is authoritative:
// a node hearing its own death is excommunicated rather than arguing.
func (d *distState) onDead(from, n int) {
	if d.mb == nil {
		return
	}
	d.mb.declareDead(n, fmt.Sprintf("death gossiped by node %d", from))
}

// onMemberHello admits a peer's membership announcement, carried in the
// connection handshake hello. For a known node there is nothing to do;
// for an unknown node it is a join: the transport learns the
// joiner's dial address, the membership map grows (verifying the
// announced range continues the partition), and AGAS grows its directory
// and cache to cover the new localities. Join admission is serialized and
// idempotent per node — the hello re-arrives on every reconnect.
func (d *distState) onMemberHello(from int, mh *wire.MemberHello) {
	m := d.mb
	if m == nil {
		return
	}
	m.joinMu.Lock()
	defer m.joinMu.Unlock()
	if from < d.lmap.Nodes() {
		return // startup peer or reconnect: nothing to grow
	}
	if from != d.lmap.Nodes() {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: next node ID is %d", from, d.lmap.Nodes()))
		return
	}
	mt, ok := d.tr.(transport.MemberTransport)
	if !ok {
		d.rt.recordError(fmt.Errorf("core: node %d tried to join but transport cannot grow", from))
		return
	}
	if err := mt.AddPeer(from, mh.Addr, mh.Lo, mh.Hi); err != nil {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: %w", from, err))
		return
	}
	if _, err := d.lmap.AddNode(agas.Range{Lo: mh.Lo, Hi: mh.Hi}); err != nil {
		d.rt.recordError(fmt.Errorf("core: rejecting join of node %d: %w", from, err))
		return
	}
	d.rt.agas.Grow(d.lmap.Localities())
	m.joins.Add(1)
}

// MemberInfo is one row of a Members snapshot.
type MemberInfo struct {
	// Node is the peer's ID.
	Node int
	// Range is the locality range the node announced when it joined.
	Range agas.Range
	// Alive is false once the node has been declared dead.
	Alive bool
	// Member reports whether the node beats and is monitored: true for
	// every node of a machine whose transport can grow, false otherwise.
	Member bool
	// Phi is the current accrued suspicion (0 for self, the dead, and
	// peers with no beat history).
	Phi float64
}

// Members snapshots the machine's membership as this node sees it.
func (r *Runtime) Members() []MemberInfo {
	d := r.dist
	if d == nil {
		return []MemberInfo{{Node: 0, Range: agas.Range{Lo: 0, Hi: r.Localities()}, Alive: true}}
	}
	now := time.Now()
	out := make([]MemberInfo, 0, d.lmap.Nodes())
	for n := 0; n < d.lmap.Nodes(); n++ {
		rg, _ := d.lmap.NodeRange(n)
		mi := MemberInfo{Node: n, Range: rg, Alive: d.lmap.Alive(n), Member: d.mb != nil}
		if ps := d.peer(n); ps != nil && n != d.node {
			if ps.dead.Load() {
				mi.Alive = false
			}
			if det := ps.det.Load(); mi.Alive && det != nil {
				mi.Phi = det.Phi(now)
			}
		}
		out = append(out, mi)
	}
	return out
}

// SubscribeMembership registers fn to run on every membership change
// (joins and deaths) observed by this node. Callbacks fire synchronously
// after the new membership view is published, in registration order, and
// must not call back into membership mutators. Single-node runtimes never
// fire.
func (r *Runtime) SubscribeMembership(fn func(agas.MemberEvent)) {
	if r.dist == nil {
		return
	}
	r.dist.lmap.Subscribe(fn)
}
