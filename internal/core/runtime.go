// Package core implements the ParalleX runtime: a set of localities joined
// by a modelled network, a global address space, a registry of named
// actions, and the parcel transport with continuation chaining. It is the
// paper's execution model made concrete — message-driven multithreaded
// split-phase computation that moves work to data.
package core

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agas"
	"repro/internal/locality"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Config parameterizes a runtime.
type Config struct {
	// Localities is the number of execution domains. Default 1.
	Localities int
	// WorkersPerLocality bounds concurrently running threads per locality.
	// Default 4.
	WorkersPerLocality int
	// Net models the latency between two localities of this node: a parcel
	// between them is handed over by pointer once the model's latency for
	// its argument record has passed. Default: ideal (zero latency).
	Net network.Model
	// Policy selects queue service order.
	Policy locality.Policy
	// Stealing enables idle localities to steal queued work.
	Stealing bool
	// AdmitLimit bounds each resident locality's queue depth as seen by
	// sheddable parcels (actions declared with Runtime.MarkSheddable): a
	// delivery that finds the destination locality holding this many
	// queued tasks is rejected with a typed ErrOverloaded verdict to its
	// continuation instead of queueing without bound. Zero (the default)
	// disables admission control. Runtime-internal work is never shed.
	AdmitLimit int

	// Transport, when set, makes this runtime one node of a multi-process
	// machine: parcels for localities hosted elsewhere travel over it in
	// the parcel wire format, and quiescence detection extends across
	// nodes. NodeID and NodeLocalities are then required.
	Transport transport.Transport
	// NodeID is this process's node index; it must match Transport.Self.
	NodeID int
	// NodeLocalities partitions the global locality space: entry i is the
	// contiguous range hosted by node i. Localities, if nonzero, must equal
	// the partition total.
	NodeLocalities []agas.Range
	// Register, when set, is called with the new runtime before the
	// transport begins delivering parcels. On a multi-node machine actions
	// must be registered here: a peer's parcel can arrive the instant the
	// transport starts, and an action registered after New returns races
	// that delivery.
	Register func(*Runtime)
	// Membership tunes elastic membership and phi-accrual failure
	// detection. The subsystem engages exactly when the transport can grow
	// (it implements transport.MemberTransport).
	Membership MembershipConfig

	// BalanceInterval enables the adaptive self-balancer and sets its
	// policy tick period: each tick the runtime drains the per-GID
	// arrival sample, refreshes per-locality load scores, exchanges them
	// with peers, and migrates at most BalanceMaxMoves hot objects
	// toward under-loaded live localities. 0 (the default) disables
	// balancing entirely — no sampling, no loop, no allocation on the
	// delivery path beyond one nil check.
	BalanceInterval time.Duration
	// BalanceSampleEvery paces arrival sampling: every Nth delivered
	// parcel is attributed to its destination GID. Default 8.
	BalanceSampleEvery int
	// BalanceHotThreshold is the minimum sampled arrivals per tick
	// before an object is considered for migration. Default 8.
	BalanceHotThreshold int
	// BalanceImbalance is the hysteresis ratio: an object moves only
	// when its locality's load exceeds this multiple of the candidate
	// target's load (plus the object's own contribution). Default 2.
	BalanceImbalance float64
	// BalanceMaxMoves bounds migrations per policy tick. Default 4.
	BalanceMaxMoves int
	// BalanceCooldown is how many ticks a just-migrated object is immune
	// from further moves, on the mover and the receiver. Default 5.
	BalanceCooldown int

	// TraceSampleRate is the fraction of root parcels that start a sampled
	// distributed trace, in [0,1]. Sampling is deterministic every-Nth
	// (N = 1/rate), decided once at the root send; continuations and wire
	// hops inherit the decision, so a sampled trace is recorded end to end.
	// 0 (the default) mints no local traces, though spans for sampled
	// parcels arriving from peers are still recorded.
	TraceSampleRate float64
	// TraceSpanCapacity bounds the in-memory span buffer (default 4096);
	// when full, new spans are dropped and counted.
	TraceSpanCapacity int
}

func (c *Config) fill() {
	if c.Localities <= 0 {
		c.Localities = 1
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 4
	}
	if c.Net == nil {
		c.Net = network.NewIdeal(c.Localities)
	}
}

// Runtime is one ParalleX machine instance.
type Runtime struct {
	cfg Config
	// locs holds the execution machinery per locality. Entries are
	// atomic because a node death can re-home a dead peer's localities
	// onto this node at runtime (adoption installs a fresh locality into
	// a formerly nil slot while parcels race the swap). The slice itself
	// is fixed at startup width; localities announced by later joiners
	// are reached only by parcel and can never be adopted here.
	locs  []atomic.Pointer[locality.Locality]
	agas  *agas.Service
	net   network.Model
	slow  *metrics.SLOW
	acts  *actionRegistry
	hwGID []agas.GID // per-locality hardware names

	// sheddable names the externally driven actions whose deliveries pass
	// through admission control. Written only before the transport starts
	// (MarkSheddable), read lock-free on the delivery path.
	sheddable map[string]struct{}
	// direct names the actions that run where their parcels land (the
	// px.agas.* actions and MarkDirect's), written and read like
	// sheddable.
	direct map[string]struct{}
	dist   *distState // nil for a single-process machine
	fences *fenceTable
	// bal is the adaptive self-balancer; nil unless BalanceInterval > 0.
	// The delivery hot path reads it with one nil check (see enqueue).
	bal *balancerState

	// Observability: the named-metric registry served over HTTP, the
	// distributed-trace span buffer, and the root-sampling state (every
	// sampleEvery-th root parcel starts a sampled trace; 0 disables
	// local minting).
	mreg         *metrics.Registry
	spans        *trace.Spans
	sampleEvery  uint64
	sampleSeq    atomic.Uint64
	opSeq        atomic.Uint64 // paces operational (steal) spans separately
	sampledRoots atomic.Uint64 // traces minted locally (px.trace.sampled)

	// reducers names the fold operators distributed reductions and
	// dataflow templates apply.
	reducers *reducerRegistry

	// migrations serializes moves per object: each GID has at most one
	// migration in flight from this node (the fence's single-closer
	// invariant), while moves of different objects proceed concurrently —
	// a runtime-wide lock here would deadlock an action that migrates a
	// second object while its own target is being quiesced.
	migMu      sync.Mutex
	migrations map[agas.GID]chan struct{}

	// replies holds the one-shot reply slots of CallFrom and WaitLCO, one
	// table per locality of the startup width (see reply.go);
	// staleReplies counts the replies that found their slot already
	// resolved or handed out again (px.reply.stale).
	replies      []replyTable
	staleReplies atomic.Uint64

	pending  atomic.Int64
	quiet    sync.Mutex
	quietC   *sync.Cond
	errMu    sync.Mutex
	errs     []error
	shutdown atomic.Bool
	// terminating marks an abrupt (crash-model) teardown: work dropped
	// by closed localities is expected, not a programming error.
	terminating atomic.Bool

	// dispatched, when set, sees every parcel execute hands to its action.
	// Only tests set it; it is nil otherwise.
	dispatched atomic.Pointer[func(*parcel.Parcel)]
}

// New builds and starts a runtime. Callers must Shutdown when done.
func New(cfg Config) *Runtime {
	var lmap *agas.LocalityMap
	if cfg.Transport != nil {
		m, err := agas.NewLocalityMap(cfg.NodeLocalities)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		lmap = m
		if cfg.NodeID != cfg.Transport.Self() {
			panic(fmt.Sprintf("core: NodeID %d but transport is node %d", cfg.NodeID, cfg.Transport.Self()))
		}
		if lmap.Nodes() != cfg.Transport.Nodes() {
			panic(fmt.Sprintf("core: %d locality ranges for a %d-node transport", lmap.Nodes(), cfg.Transport.Nodes()))
		}
		if cfg.Localities != 0 && cfg.Localities != lmap.Localities() {
			panic(fmt.Sprintf("core: Localities %d but node ranges span %d", cfg.Localities, lmap.Localities()))
		}
		cfg.Localities = lmap.Localities()
	}
	cfg.fill()
	if cfg.Net.Nodes() < cfg.Localities {
		panic(fmt.Sprintf("core: network has %d endpoints for %d localities",
			cfg.Net.Nodes(), cfg.Localities))
	}
	r := &Runtime{
		cfg:        cfg,
		agas:       agas.NewService(cfg.Localities),
		net:        cfg.Net,
		slow:       metrics.NewSLOW(),
		acts:       newActionRegistry(),
		fences:     newFenceTable(),
		reducers:   newReducerRegistry(),
		migrations: make(map[agas.GID]chan struct{}),
		// Migration's exchanges run where they land: an install queued
		// behind user work deadlocks two nodes whose only workers each
		// migrate toward the other.
		direct: map[string]struct{}{ActionAGASInstall: {}, ActionAGASCommit: {}},
	}
	resident := agas.Range{Lo: 0, Hi: cfg.Localities}
	if lmap != nil {
		r.agas.SetDistribution(lmap, cfg.NodeID)
		resident, _ = lmap.NodeRange(cfg.NodeID)
	}
	r.quietC = sync.NewCond(&r.quiet)
	// Only resident localities get execution machinery; entries for
	// localities hosted by other nodes stay nil and are reached by parcel
	// (until a death re-homes them here — see adoptLocalities).
	r.locs = make([]atomic.Pointer[locality.Locality], cfg.Localities)
	r.replies = make([]replyTable, cfg.Localities)
	for i := resident.Lo; i < resident.Hi; i++ {
		r.locs[i].Store(r.newLocality(i, cfg.Stealing))
	}
	if cfg.Stealing {
		victims := make([]*locality.Locality, 0, resident.Count())
		for i := resident.Lo; i < resident.Hi; i++ {
			victims = append(victims, r.locs[i].Load())
		}
		for _, l := range victims {
			l.SetVictims(victims)
		}
	}
	// Hardware resources are first-class named objects (typed names), per
	// the paper's global name space. Hardware names are deterministic so
	// every node can address any locality without a directory consult.
	r.hwGID = make([]agas.GID, cfg.Localities)
	for i := range r.hwGID {
		r.hwGID[i] = agas.HardwareGID(i)
		if l := r.loc(i); l != nil {
			r.agas.AllocHardware(i)
			l.Store().Put(r.hwGID[i], l)
		}
		r.agas.Namespace().Bind(fmt.Sprintf("/hw/locality/%d", i), r.hwGID[i])
	}
	registerBuiltins(r.acts)
	// The distributed state must exist before the Register callback runs —
	// the callback sees a fully assembled runtime — but the transport only
	// starts delivering afterwards, so registrations cannot race arriving
	// parcels.
	if cfg.Transport != nil {
		r.dist = newDistState(r, cfg.Transport, cfg.NodeID, lmap)
		// Membership engages when the transport can grow (AddPeer).
		if _, canGrow := cfg.Transport.(transport.MemberTransport); canGrow {
			// The announced dial-back address: what a grown machine's
			// peers use to reach a joiner.
			addr := ""
			if a, ok := cfg.Transport.(interface{ Addr() net.Addr }); ok && a.Addr() != nil {
				addr = a.Addr().String()
			}
			r.dist.mb = newMemberState(r.dist, cfg.Membership, addr)
			// A frame a lane drops is settled by the death verdict it
			// leads to.
			if lt, ok := cfg.Transport.(transport.LossTransport); ok {
				lt.SetUnreachableHandler(r.dist.onUnreachable)
			}
		}
		// The runtime's own subscriber runs before any application one
		// (registration order), so adoption precedes workload rehoming.
		lmap.Subscribe(r.onMemberEvent)
		cfg.Transport.SetHandler(r.dist.onFrame)
	}
	// The balancer state must exist before initObservability binds the
	// px.balance.* gauges; its policy loop starts last, once the
	// transport delivers (startBalancer below).
	if cfg.BalanceInterval > 0 {
		r.bal = newBalancerState(r)
	}
	r.initObservability()
	if cfg.Register != nil {
		cfg.Register(r)
	}
	if cfg.Transport != nil {
		// Announce the action table after Register has run (the snapshot
		// must cover the application's actions) and before Start (the hello
		// rides every connection handshake).
		var mh *memberHello
		if r.dist.mb != nil {
			mh = &memberHello{node: cfg.NodeID, lo: resident.Lo, hi: resident.Hi, addr: r.dist.mb.selfAddr}
		}
		// ourTable freezes the same helloPrefix-capped prefix encodeHello
		// encodes, so a position this node ever puts on the wire is always
		// inside every peer's copy of the table.
		set := r.acts.snapshot()
		r.dist.ourTable = &senderTable{set: set, n: helloPrefix(set.names)}
		cfg.Transport.SetHello(encodeHello(set.names, mh))
		cfg.Transport.SetHelloHandler(r.dist.onHello)
		if err := cfg.Transport.Start(); err != nil {
			panic(fmt.Sprintf("core: transport start: %v", err))
		}
		if r.dist.mb != nil {
			go r.dist.mb.run()
		}
	}
	r.startBalancer()
	return r
}

// newLocality builds the execution machinery for resident locality i.
func (r *Runtime) newLocality(i int, stealing bool) *locality.Locality {
	loc := i
	return locality.New(i, locality.Config{
		Workers:    r.cfg.WorkersPerLocality,
		Policy:     r.cfg.Policy,
		Stealing:   stealing,
		OnSteal:    func(remote bool) { r.onSteal(loc, remote) },
		AdmitLimit: r.cfg.AdmitLimit,
	})
}

// loc returns locality i's execution machinery, or nil when i is hosted
// elsewhere (or outside this node's fixed locality table).
func (r *Runtime) loc(i int) *locality.Locality {
	if i < 0 || i >= len(r.locs) {
		return nil
	}
	return r.locs[i].Load()
}

// onMemberEvent is the runtime's own membership subscriber, registered
// before any application subscriber so that by the time a workload's
// rehome callback runs, adopted localities already execute.
func (r *Runtime) onMemberEvent(ev agas.MemberEvent) {
	if ev.Kind != agas.MemberDied || r.dist == nil || ev.Adopter != r.dist.node {
		return
	}
	r.adoptLocalities(ev.Moved)
}

// adoptLocalities spins up execution machinery for localities re-homed
// onto this node by a peer's death: a fresh locality (no stealing —
// adopted domains are emergency capacity, not part of the tuned resident
// set), its hardware object, and its directory entry, so parcels
// addressed to the dead node's localities execute here. Directory state
// of ordinary objects that lived there died with the node — resolutions
// against an adopted locality miss with the typed node-lost error — but
// well-known objects (workload shards) are reinstalled by membership
// subscribers registered downstream of this one.
func (r *Runtime) adoptLocalities(moved []int) {
	for _, i := range moved {
		if i < 0 || i >= len(r.locs) {
			// Announced by a node that joined after this one started:
			// outside the fixed locality table, unreachable as adopter.
			r.recordError(fmt.Errorf("core: cannot adopt locality %d beyond startup width %d", i, len(r.locs)))
			continue
		}
		if r.locs[i].Load() != nil {
			continue
		}
		l := r.newLocality(i, false)
		if !r.locs[i].CompareAndSwap(nil, l) {
			l.Close()
			continue
		}
		r.agas.AllocHardware(i)
		l.Store().Put(r.LocalityGID(i), l)
	}
}

// Localities reports the machine width (global, across all nodes). It
// grows when nodes join an elastic machine.
func (r *Runtime) Localities() int {
	if r.dist != nil {
		return r.dist.lmap.Localities()
	}
	return r.cfg.Localities
}

// NodeID reports this process's node index (0 on a single-process machine).
func (r *Runtime) NodeID() int {
	if r.dist == nil {
		return 0
	}
	return r.dist.node
}

// Nodes reports the machine's process count (1 for a single-process
// machine).
func (r *Runtime) Nodes() int {
	if r.dist == nil {
		return 1
	}
	return r.dist.lmap.Nodes()
}

// NodeRange reports the contiguous locality range hosted by node n (the
// whole machine on a single-process runtime). Unknown nodes report the
// zero Range.
func (r *Runtime) NodeRange(n int) agas.Range {
	if r.dist == nil {
		if n != 0 {
			panic(fmt.Sprintf("core: node %d on a single-process machine", n))
		}
		return agas.Range{Lo: 0, Hi: r.cfg.Localities}
	}
	rg, _ := r.dist.lmap.NodeRange(n)
	return rg
}

// Resident reports whether locality loc executes in this process
// (including localities adopted after a peer's death).
func (r *Runtime) Resident(loc int) bool {
	r.checkLoc(loc)
	return r.loc(loc) != nil
}

// RequestHalt asks every node of the machine (including this one) to stop
// cooperatively: each node's HaltRequested channel closes. On a
// single-process machine it is a no-op.
func (r *Runtime) RequestHalt() {
	if r.dist != nil {
		r.dist.requestHalt()
	}
}

// HaltRequested returns a channel closed when any node broadcasts a halt
// request, or nil on a single-process machine.
func (r *Runtime) HaltRequested() <-chan struct{} {
	if r.dist == nil {
		return nil
	}
	return r.dist.halt
}

// AGAS exposes the global address space service.
func (r *Runtime) AGAS() *agas.Service { return r.agas }

// SLOW exposes the degradation-source instrumentation.
func (r *Runtime) SLOW() *metrics.SLOW { return r.slow }

// Metrics exposes the named-metric registry (px.* names), suitable for
// serving with pprofserve.ServeMetrics.
func (r *Runtime) Metrics() *metrics.Registry { return r.mreg }

// Spans exposes the distributed-trace span buffer.
func (r *Runtime) Spans() *trace.Spans { return r.spans }

// Network returns the installed network model.
func (r *Runtime) Network() network.Model { return r.net }

// LocalityGID returns the typed hardware name of locality i. Hardware
// names are deterministic, so localities announced by nodes that joined
// after this one started still resolve.
func (r *Runtime) LocalityGID(i int) agas.GID {
	if i >= 0 && i < len(r.hwGID) {
		return r.hwGID[i]
	}
	return agas.HardwareGID(i)
}

// Locality returns the i-th locality (for instrumentation; applications
// interact through parcels and actions). It is nil for localities hosted
// by other nodes.
func (r *Runtime) Locality(i int) *locality.Locality { return r.loc(i) }

// IdleFractions reports each resident locality's starvation fraction
// (zero for localities hosted by other nodes).
func (r *Runtime) IdleFractions() []float64 {
	out := make([]float64, len(r.locs))
	for i := range r.locs {
		if l := r.locs[i].Load(); l != nil {
			out[i] = l.IdleFraction()
		}
	}
	return out
}

// addWork notes one unit of outstanding work (queued task or in-flight
// parcel). Quiescence is reached when the count returns to zero.
func (r *Runtime) addWork() { r.pending.Add(1) }

func (r *Runtime) doneWork() {
	if r.pending.Add(-1) == 0 {
		r.quiet.Lock()
		r.quietC.Broadcast()
		r.quiet.Unlock()
	}
}

// Wait blocks until the machine is quiescent: no queued tasks, running
// threads, or in-flight parcels. Work injected while waiting extends the
// wait. Tasks increment the counter for children before completing, so the
// counter cannot reach zero while a task graph is still unfolding. On a
// multi-node machine Wait additionally drains the other nodes with a
// cross-node probe, so it returns only at global quiescence (every node
// must be reachable).
func (r *Runtime) Wait() {
	if r.dist != nil {
		r.dist.waitGlobal()
		return
	}
	r.waitLocal()
}

// waitLocal blocks until this node's own work counter reaches zero.
func (r *Runtime) waitLocal() {
	r.quiet.Lock()
	for r.pending.Load() != 0 {
		r.quietC.Wait()
	}
	r.quiet.Unlock()
}

// Shutdown waits for quiescence and stops all localities (announcing the
// departure to peer nodes first on a multi-node machine). The runtime is
// unusable afterwards.
func (r *Runtime) Shutdown() {
	if !r.shutdown.CompareAndSwap(false, true) {
		return
	}
	// The balancer stops before quiescence: its migrations inject work,
	// and a plan issued mid-Wait would chase a machine trying to drain.
	r.stopBalancer(true)
	r.Wait()
	if r.dist != nil {
		// The membership loop stops only after Wait: detection must stay
		// live while waiting, or a peer's death could block it forever.
		if r.dist.mb != nil {
			r.dist.mb.stopLoop()
		}
		r.dist.goodbye()
		r.dist.tr.Close()
	}
	for i := range r.locs {
		if l := r.locs[i].Load(); l != nil {
			l.Close()
		}
	}
}

// Terminate abruptly stops this node: no Wait, no goodbye, queued work
// dropped. It models a crash for fault tests — from the rest of the
// machine it looks exactly like the process vanishing, and the peers'
// failure detectors (not this call) tell them about it. The runtime is
// unusable afterwards.
func (r *Runtime) Terminate() {
	if !r.shutdown.CompareAndSwap(false, true) {
		return
	}
	r.terminating.Store(true)
	// Signal only — a crash model does not wait for a policy tick (an
	// in-flight migration's wait is bounded by migrateVerdictBound).
	r.stopBalancer(false)
	if r.dist != nil {
		if r.dist.mb != nil {
			r.dist.mb.stopLoop()
		}
		r.dist.tr.Close()
	}
	for i := range r.locs {
		if l := r.locs[i].Load(); l != nil {
			l.Close()
		}
	}
}

// recordError collects an asynchronous runtime error (failed action with no
// continuation to deliver the failure to).
func (r *Runtime) recordError(err error) {
	r.errMu.Lock()
	r.errs = append(r.errs, err)
	r.errMu.Unlock()
}

// Errors returns the asynchronous errors recorded so far.
func (r *Runtime) Errors() []error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return append([]error(nil), r.errs...)
}

// Spawn posts fn as a new thread on locality loc. It is the local (non-
// parcel) way to start work; the fn receives a Context bound to loc.
func (r *Runtime) Spawn(loc int, fn func(*Context)) {
	r.checkResident(loc)
	r.addWork()
	r.slow.ThreadsSpawned.Inc()
	r.mustPost(r.loc(loc).Post(func() {
		defer r.doneWork()
		fn(&Context{rt: r, loc: loc})
		r.slow.TasksExecuted.Inc()
	}))
}

func (r *Runtime) checkLoc(i int) {
	if i < 0 || i >= r.Localities() {
		panic(fmt.Sprintf("core: locality %d out of range [0,%d)", i, r.Localities()))
	}
}

// checkResident panics unless locality i executes in this process.
// Operations that run code or install objects need a resident locality;
// remote localities are reached only by parcel.
func (r *Runtime) checkResident(i int) {
	r.checkLoc(i)
	if r.loc(i) == nil {
		panic(fmt.Sprintf("core: locality %d is hosted by node %d, not this node %d",
			i, r.nodeOf(i), r.dist.node))
	}
}

// now is indirected for deterministic tests.
var now = time.Now
