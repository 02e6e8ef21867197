package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/balance"
	"repro/internal/wire"
)

// balancerState is the runtime side of the adaptive self-balancer: the
// arrival sampler fed from the parcel delivery path, the policy engine,
// the machine-wide load table assembled from local counters and peers'
// fLoad reports, and the loop that turns the engine's plans into
// rt.Migrate calls. It exists only when Config.BalanceInterval > 0 —
// a nil Runtime.bal is the entire cost of the feature when disabled
// (one branch on the delivery path, nothing anywhere else).
type balancerState struct {
	r       *Runtime
	cfg     balance.Config
	sampler *balance.Sampler
	eng     *balance.Engine

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// lastSteals holds each resident locality's cross-locality steal
	// counter at the previous tick; the delta discounts its score (a
	// stealing locality is advertising spare capacity). Loop-only.
	lastSteals map[int]uint64

	// remote is the last load score reported per non-resident locality
	// via fLoad frames; written by transport goroutines, read each tick.
	mu     sync.Mutex
	remote map[int]remoteLoad

	moves    atomic.Uint64 // migrations performed by the policy loop
	moveErrs atomic.Uint64 // migrations that failed (object moved/freed meanwhile)
	reports  atomic.Uint64 // fLoad frames accepted from peers
}

type remoteLoad struct {
	score float64
	at    int64 // unix nanos of the report, for debugging staleness
}

// newBalancerState assembles the balancer from the runtime's Balance*
// knobs. Called from New before initObservability so the px.balance.*
// gauges can bind to it; the loop starts separately (startBalancer)
// once the transport is live.
func newBalancerState(r *Runtime) *balancerState {
	cfg := balance.Config{
		Interval:     r.cfg.BalanceInterval,
		SampleEvery:  r.cfg.BalanceSampleEvery,
		HotThreshold: r.cfg.BalanceHotThreshold,
		Imbalance:    r.cfg.BalanceImbalance,
		MaxMoves:     r.cfg.BalanceMaxMoves,
		Cooldown:     r.cfg.BalanceCooldown,
	}.WithDefaults()
	return &balancerState{
		r:          r,
		cfg:        cfg,
		sampler:    balance.NewSampler(cfg.SampleEvery, cfg.MaxTracked),
		eng:        balance.NewEngine(cfg),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		lastSteals: make(map[int]uint64),
		remote:     make(map[int]remoteLoad),
	}
}

// startBalancer launches the policy loop; a no-op when balancing is off.
func (r *Runtime) startBalancer() {
	if r.bal != nil {
		go r.bal.loop()
	}
}

// stopBalancer signals the policy loop and, when wait is true, blocks
// until it has finished its current tick (including any in-flight
// migration, whose waits migrateVerdictBound bounds). Shutdown waits —
// the loop must not inject work after quiescence; Terminate only signals
// — a crash model does not linger.
func (r *Runtime) stopBalancer(wait bool) {
	b := r.bal
	if b == nil {
		return
	}
	b.stopOnce.Do(func() { close(b.stop) })
	if wait {
		<-b.done
	}
}

// coolBalance grants g a migration cooldown on this node's balancer, if
// any. Called wherever a migration lands an object here — the local
// commit path and the px.agas.install action — so a freshly placed
// object is not immediately re-judged by the receiver's policy loop.
func (r *Runtime) coolBalance(g agas.GID) {
	if b := r.bal; b != nil {
		b.eng.Cool(g)
	}
}

func (b *balancerState) loop() {
	defer close(b.done)
	t := time.NewTicker(b.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.tick()
		}
	}
}

// tick is one pass of the introspection loop: drain the arrival sample,
// fold each resident locality's counters into its smoothed score,
// gossip the scores, assemble the machine-wide load picture, and
// execute the engine's (bounded, hysteresis-guarded) plan.
func (b *balancerState) tick() {
	r := b.r
	hot := b.sampler.Drain()
	arrivals := make(map[int]float64, 8)
	for _, h := range hot {
		arrivals[h.Loc] += float64(h.Count)
	}

	width := r.Localities()
	var report []wire.LoadEntry
	for i := 0; i < width; i++ {
		l := r.loc(i)
		if l == nil {
			continue
		}
		// Score = sampled arrivals this tick + standing queue pressure
		// (total depth plus the deepest worker deque), discounted by the
		// tick's cross-locality steals: a locality that spent the tick
		// stealing has spare capacity regardless of what arrived.
		raw := arrivals[i] + float64(l.QueueLen()) + float64(maxDepth(l.DequeDepths()))
		stolen := l.Stolen()
		raw -= float64(stolen - b.lastSteals[i])
		b.lastSteals[i] = stolen
		if raw < 0 {
			raw = 0
		}
		score := b.eng.Observe(i, raw)
		report = append(report, wire.LoadEntry{Loc: i, Score: score})
	}

	d := r.dist
	if d != nil {
		b.broadcast(d, report)
	}
	moves := b.eng.Plan(b.buildLoads(width), hot)
	for _, m := range moves {
		// A failed move is routine, not a runtime error: the object may
		// have been freed or manually migrated between sampling and now.
		if err := r.Migrate(m.GID, m.To); err != nil {
			b.moveErrs.Add(1)
		} else {
			b.moves.Add(1)
		}
	}
}

func maxDepth(depths []int) int {
	m := 0
	for _, d := range depths {
		if d > m {
			m = d
		}
	}
	return m
}

// buildLoads assembles the machine-wide load picture: resident
// localities carry their freshly observed EWMA scores; localities
// hosted elsewhere carry the peer's last fLoad report (zero when the
// peer has never reported — an unknown is treated as idle, which is
// exactly right for a joiner that just announced an empty range).
// Eligibility is the membership gate: only localities hosted by live,
// non-departed, non-suspect nodes may receive objects.
func (b *balancerState) buildLoads(width int) []balance.Load {
	r := b.r
	d := r.dist
	now := time.Now()

	var remote map[int]remoteLoad
	if d != nil {
		remote = make(map[int]remoteLoad, 8)
		b.mu.Lock()
		for k, v := range b.remote {
			remote[k] = v
		}
		b.mu.Unlock()
	}

	loads := make([]balance.Load, 0, width)
	for i := 0; i < width; i++ {
		if r.loc(i) != nil {
			loads = append(loads, balance.Load{Loc: i, Score: b.eng.Score(i), Eligible: true})
			continue
		}
		if d == nil {
			continue
		}
		n, ok := d.lmap.NodeOf(i)
		if !ok {
			continue
		}
		var score float64
		if rl, ok := remote[i]; ok {
			score = rl.score
		}
		loads = append(loads, balance.Load{Loc: i, Score: score, Eligible: nodeEligible(d, n, now)})
	}
	return loads
}

// nodeEligible reports whether node n may be targeted by a migration:
// alive in the locality map, not declared dead, not cleanly departed,
// and — once it has beaten — below the suspicion threshold. A node we
// know nothing about (no peer state yet) is eligible: absence of evidence
// is how a fixed machine looks.
func nodeEligible(d *distState, n int, now time.Time) bool {
	if n == d.node {
		return true
	}
	if !d.lmap.Alive(n) {
		return false
	}
	ps := d.peer(n)
	if ps == nil {
		return true
	}
	if ps.dead.Load() || ps.departed.Load() {
		return false
	}
	if det := ps.det.Load(); det != nil && det.Phi(now) >= suspectPhi {
		return false
	}
	return true
}

// broadcast ships this node's per-locality scores to every reachable
// peer as one fLoad frame. Best-effort: a lost report means the peer
// plans one tick on stale data, which the hysteresis band absorbs.
func (b *balancerState) broadcast(d *distState, entries []wire.LoadEntry) {
	if len(entries) == 0 || len(entries) > math.MaxUint16 {
		return
	}
	frame := wire.EncodeLoad(entries)
	now := time.Now()
	for n := 0; n < d.lmap.Nodes(); n++ {
		if n == d.node || !nodeEligible(d, n, now) {
			continue
		}
		_ = d.tr.Send(n, frame)
	}
}

// onLoad records a peer's fLoad report (already vetted by wire.Decode:
// every entry names a locality of this machine and carries a finite,
// non-negative score). Nodes without a balancer ignore the frames — the
// wire kind exists machine-wide, the policy is per-node.
func (d *distState) onLoad(loads []wire.LoadEntry) {
	b := d.rt.bal
	if b == nil {
		return
	}
	now := time.Now().UnixNano()
	b.mu.Lock()
	for _, e := range loads {
		b.remote[e.Loc] = remoteLoad{score: e.Score, at: now}
	}
	b.mu.Unlock()
	b.reports.Add(1)
}
