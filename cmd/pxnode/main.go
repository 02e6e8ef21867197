// Command pxnode starts one node of a multi-process ParalleX machine and
// runs a named distributed workload. Each node hosts a contiguous range of
// localities; parcels cross between nodes as length-framed streams over
// TCP. Node 0 drives the workload, the others serve parcels until the
// driver broadcasts a halt.
//
// Workloads (driven by node 0): ping round-trips a no-op call to every
// locality; ring sends one parcel whose continuation chain visits every
// locality before resolving a future back home; reduce fans a rank query
// out and funnels the answers into one Reduce LCO; migrate rebalances a
// ring of vector objects skewed onto node 0 by live-migrating them
// across the machine, comparing the burst latency before and after;
// migrate-auto runs the same skewed ring but never calls Migrate — it
// sustains load until the adaptive balancers (enable with -balance on
// EVERY node) spread the ring on their own, then measures the balanced
// burst against the placement the policy chose;
// reduce-lco runs the same all-to-one collective through the distributed
// LCO gate tree (per-node leaf reductions feeding an AGAS-homed root);
// barrier runs machine-wide barrier rounds over distributed gate trees,
// every locality arriving and awaiting the release; serve turns the
// machine into the sharded key-value service (one shard per locality at
// well-known names) and holds it up until a pxload client broadcasts the
// halt — pair it with -admit to bound each locality's queue and shed
// overload with typed verdicts.
//
// The -localities flag gives the locality count per node in node order
// ("2,2,2" = three nodes hosting localities [0,2), [2,4), [4,6)).
//
// Membership: a node started with -join N attaches to a RUNNING machine
// as its next node, hosting N fresh localities — -peers/-localities
// describe the existing machine, -listen is where the running peers dial
// the joiner back, and -node is ignored. Failure detection is tuned with
// -beat (heartbeat interval, default 250ms) and -dead-after (the hard
// silence floor before a suspect peer is declared dead, default 3s);
// when a peer dies its localities are adopted by a surviving node and
// its stranded futures fail with the typed node-lost verdict.
//
// Adaptive self-balancing: -balance enables the per-node balancer at
// the given tick interval (it must be set on every node — each node
// plans moves for the objects it hosts). The policy knobs
// -balance-sample, -balance-hot, -balance-imbalance, -balance-moves and
// -balance-cooldown map one-to-one onto the Balance* runtime config;
// docs/OPERATIONS.md has the tuning guide and the px.balance.* metrics
// to watch.
//
// Wire tuning: -lanes shards each peer pair across that many TCP
// connections, with parcels affinity-hashed on their destination GID —
// per-object ordering is preserved while independent streams ride
// independent sockets. Nodes that share a host discover each other at
// dial time and ride a Unix-domain same-host fabric automatically; see
// docs/OPERATIONS.md for when to turn either knob.
//
// A three-node machine on one host:
//
//	pxnode -node 0 -peers 127.0.0.1:9400,127.0.0.1:9401,127.0.0.1:9402 -localities 2,2,2 -workload ring &
//	pxnode -node 1 -peers 127.0.0.1:9400,127.0.0.1:9401,127.0.0.1:9402 -localities 2,2,2 &
//	pxnode -node 2 -peers 127.0.0.1:9400,127.0.0.1:9401,127.0.0.1:9402 -localities 2,2,2
//
// Serving tier (see docs/OPERATIONS.md for the full operator walkthrough):
//
//	pxnode -node 0 -peers 127.0.0.1:9400,127.0.0.1:9401 -localities 2,2 -workload serve -admit 256 &
//	pxload -node 1 -peers 127.0.0.1:9400,127.0.0.1:9401 -localities 2,2 -rate 20000 -n 100000
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	parallex "repro"
	"repro/internal/lco/collect"
	"repro/internal/pprofserve"
	"repro/internal/workloads"
)

func main() {
	node := flag.Int("node", 0, "this process's node ID")
	peers := flag.String("peers", "", "comma-separated host:port of every node, in node order")
	locs := flag.String("localities", "", "locality count per node in node order, e.g. 2,2,2 = nodes hosting [0,2) [2,4) [4,6)")
	listen := flag.String("listen", "", "listen address (default: the -peers entry for this node)")
	workload := flag.String("workload", "", "ping | ring | reduce | reduce-lco | barrier | migrate | migrate-auto | serve (node 0 only; empty = serve parcels until halt)")
	iters := flag.Int("n", 100, "workload iterations")
	workers := flag.Int("workers", 4, "workers per locality")
	admit := flag.Int("admit", 0, "admission limit: max queued tasks per locality before sheddable requests get ErrOverloaded; 0 = unbounded")
	join := flag.Int("join", 0, "join a RUNNING machine as a new node hosting this many fresh localities; -peers/-localities describe the existing machine and -listen is required (ignore -node)")
	beat := flag.Duration("beat", 0, "membership heartbeat interval (0 = default 250ms)")
	deadAfter := flag.Duration("dead-after", 0, "hard silence floor before a suspect peer is declared dead (0 = default 3s)")
	lanes := flag.Int("lanes", 0, "TCP connections per peer pair, parcels affinity-hashed on destination GID across them (0 = single lane)")
	balance := flag.Duration("balance", 0, "adaptive balancer tick interval on every node (0 = balancing disabled)")
	balanceSample := flag.Int("balance-sample", 0, "sample every Nth parcel arrival for per-object heat (0 = default 8)")
	balanceHot := flag.Int("balance-hot", 0, "min sampled arrivals per tick before an object is migration-eligible (0 = default 8)")
	balanceImbalance := flag.Float64("balance-imbalance", 0, "hysteresis ratio: move only when source load >= ratio*coldest + the object's own contribution (0 = default 2)")
	balanceMoves := flag.Int("balance-moves", 0, "max migrations planned per tick per node (0 = default 4)")
	balanceCooldown := flag.Int("balance-cooldown", 0, "ticks a just-moved object is immune from another move (0 = default 5)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	metricsAddr := flag.String("metrics", "", "serve the px.* metrics registry and sampled trace spans as JSON on this address (e.g. localhost:7070); empty = off")
	traceSample := flag.Float64("trace-sample", 0, "fraction of root parcels that start a sampled distributed trace, 0..1")
	flag.Parse()

	pprofserve.Start(*pprofAddr, log.Printf)

	peerList := strings.Split(*peers, ",")
	if *peers == "" || len(peerList) < 2 {
		log.Fatal("pxnode: -peers needs at least two comma-separated addresses")
	}
	ranges, err := parseLocalities(*locs, len(peerList))
	if err != nil {
		log.Fatalf("pxnode: %v", err)
	}
	if *join > 0 {
		// A joiner is the machine's next node: its ID is the current node
		// count, its range continues the existing partition, and its
		// address is appended to the dial table. The running peers learn
		// all three from the membership section of the joiner's handshake
		// hello — no restart, no reconfiguration on their side.
		if *listen == "" {
			log.Fatal("pxnode: -join requires -listen (peers dial the joiner back at this address)")
		}
		*node = len(peerList)
		peerList = append(peerList, *listen)
		hi := ranges[len(ranges)-1].Hi
		ranges = append(ranges, parallex.LocalityRange{Lo: hi, Hi: hi + *join})
	}
	if *node < 0 || *node >= len(peerList) {
		log.Fatalf("pxnode: -node %d outside machine [0,%d)", *node, len(peerList))
	}
	addr := *listen
	if addr == "" {
		addr = peerList[*node]
	}

	hsRanges := make([][2]int, len(ranges))
	for i, rg := range ranges {
		hsRanges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tr, err := parallex.NewTCPTransport(parallex.TCPTransportConfig{
		Self:   *node,
		Listen: addr,
		Peers:  peerList,
		Ranges: hsRanges,
		Lanes:  *lanes,
	})
	if err != nil {
		log.Fatalf("pxnode: %v", err)
	}

	rt := parallex.New(parallex.Config{
		Transport:           tr,
		NodeID:              *node,
		NodeLocalities:      ranges,
		WorkersPerLocality:  *workers,
		AdmitLimit:          *admit,
		TraceSampleRate:     *traceSample,
		BalanceInterval:     *balance,
		BalanceSampleEvery:  *balanceSample,
		BalanceHotThreshold: *balanceHot,
		BalanceImbalance:    *balanceImbalance,
		BalanceMaxMoves:     *balanceMoves,
		BalanceCooldown:     *balanceCooldown,
		Membership: parallex.MembershipConfig{
			HeartbeatInterval: *beat,
			DeadAfter:         *deadAfter,
		},
		// Actions must exist before the transport starts delivering: a
		// peer's parcel can name them the instant the node is reachable.
		Register: registerDistActions,
	})
	rt.SubscribeMembership(func(ev parallex.MemberEvent) {
		switch ev.Kind {
		case parallex.MemberJoined:
			log.Printf("pxnode: node %d joined with localities %v (membership v%d)", ev.Node, ev.Range, ev.Version)
		case parallex.MemberDied:
			log.Printf("pxnode: node %d declared DEAD; localities %v re-homed onto node %d (membership v%d)",
				ev.Node, ev.Moved, ev.Adopter, ev.Version)
		}
	})
	// Every node hosts its localities' KV shards at their well-known
	// names; they serve nothing unless a client (pxload, or the serve
	// workload's own smoke traffic) addresses them.
	workloads.InstallKVShards(rt)
	if _, err := pprofserve.ServeMetrics(*metricsAddr, rt.Metrics(), rt.Spans(), log.Printf); err != nil {
		log.Fatalf("pxnode: %v", err)
	}
	home := ranges[*node].Lo
	fmt.Printf("pxnode: node %d up, localities %v of %d, listening on %s\n",
		*node, ranges[*node], rt.Localities(), addr)

	if *node != 0 {
		if *workload != "" {
			log.Fatal("pxnode: only node 0 drives a workload")
		}
		<-rt.HaltRequested()
		fmt.Printf("pxnode: node %d halt received, draining\n", *node)
		rt.Shutdown()
		return
	}

	if *workload == "serve" {
		// The serving tier: shards are installed, actions registered —
		// hold the machine up for pxload clients until one broadcasts
		// the halt.
		fmt.Printf("pxnode: node 0 serving (admit limit %d); waiting for a pxload halt\n", *admit)
		<-rt.HaltRequested()
		fmt.Printf("pxnode: node 0 halt received, draining\n")
		rt.Shutdown()
		return
	}

	start := time.Now()
	switch *workload {
	case "ping":
		runPing(rt, home, *iters)
	case "ring":
		runRing(rt, home, *iters)
	case "reduce":
		runReduce(rt, home, *iters)
	case "reduce-lco":
		runReduceLCO(rt, home, *iters)
	case "barrier":
		runBarrier(rt, home, *iters)
	case "migrate":
		runMigrate(rt, home, *iters)
	case "migrate-auto":
		if *balance <= 0 {
			die(rt, "pxnode: migrate-auto needs the balancer: start every node with -balance (e.g. -balance 50ms)")
		}
		runMigrateAuto(rt, home, *iters)
	case "":
		// Serve-only driver: useful when another process injects work.
	default:
		log.Fatalf("pxnode: unknown workload %q", *workload)
	}
	rt.Wait()
	fmt.Printf("pxnode: machine quiescent after %v\n", time.Since(start))
	fmt.Printf("pxnode: stats %v\n", rt.SLOW())
	if errs := rt.Errors(); len(errs) > 0 {
		die(rt, "pxnode: %d runtime errors, first: %v", len(errs), errs[0])
	}
	rt.RequestHalt()
	rt.Shutdown()
}

// die reports a driver failure but still broadcasts the halt first, so
// worker nodes do not wait forever on a machine whose driver is gone.
func die(rt *parallex.Runtime, format string, args ...any) {
	rt.RequestHalt()
	log.Fatalf(format, args...)
}

// parseLocalities turns "2,2,2" into contiguous per-node ranges.
func parseLocalities(spec string, nodes int) ([]parallex.LocalityRange, error) {
	if spec == "" {
		return nil, fmt.Errorf("-localities is required (e.g. 2,2,2)")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != nodes {
		return nil, fmt.Errorf("-localities has %d entries for %d nodes", len(parts), nodes)
	}
	ranges := make([]parallex.LocalityRange, len(parts))
	lo := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad locality count %q", p)
		}
		ranges[i] = parallex.LocalityRange{Lo: lo, Hi: lo + n}
		lo += n
	}
	return ranges, nil
}

// registerDistActions installs the workload actions on this node. Every
// node registers everything: action names travel in parcels and any
// locality may be asked to execute one.
func registerDistActions(rt *parallex.Runtime) {
	collect.RegisterActions(rt)
	workloads.RegisterKVService(rt)
	// pxnode.contrib-rank contributes the executing locality's index into
	// the named reduce-lco collective's local leaf.
	rt.MustRegisterAction("pxnode.contrib-rank", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		id := args.String()
		if err := args.Err(); err != nil {
			return nil, err
		}
		red, err := collect.AttachReduce(ctx.Runtime(), id)
		if err != nil {
			return nil, err
		}
		return nil, red.Contribute(ctx.Locality(), int64(ctx.Locality()))
	})
	// pxnode.arrive arrives at the named barrier and suspends until the
	// machine-wide release — the action's own completion witnesses the
	// barrier round.
	rt.MustRegisterAction("pxnode.arrive", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		id := args.String()
		if err := args.Err(); err != nil {
			return nil, err
		}
		bar, err := collect.AttachBarrier(ctx.Runtime(), id)
		if err != nil {
			return nil, err
		}
		rel := bar.Released(ctx.Locality())
		bar.Arrive(ctx.Locality())
		_, err = ctx.Await(rel)
		return nil, err
	})
	// pxnode.rank answers with the executing locality's index.
	rt.MustRegisterAction("pxnode.rank", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		return int64(ctx.Locality()), nil
	})
	// pxnode.sum reduces a float vector — the compute kernel of the
	// migrate workload.
	rt.MustRegisterAction("pxnode.sum", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		vec, ok := target.([]float64)
		if !ok {
			return nil, fmt.Errorf("pxnode.sum on %T", target)
		}
		s := 0.0
		for _, v := range vec {
			s += v
		}
		return s, nil
	})
	// pxnode.incr takes the continuation value record and passes it on,
	// incremented — the hop counter of the ring workload.
	rt.MustRegisterAction("pxnode.incr", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		raw := args.Bytes()
		if err := args.Err(); err != nil {
			return nil, err
		}
		v, err := parallex.DecodeValue(raw)
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok {
			return nil, fmt.Errorf("pxnode.incr got %T", v)
		}
		return n + 1, nil
	})
}

// runPing round-trips a split-phase no-op call to every locality in turn,
// reporting the mean latency per (mostly cross-node) call.
func runPing(rt *parallex.Runtime, home, iters int) {
	start := time.Now()
	calls := 0
	for i := 0; i < iters; i++ {
		for loc := 0; loc < rt.Localities(); loc++ {
			fut := rt.CallFrom(home, rt.LocalityGID(loc), parallex.ActionNop, nil)
			if _, err := fut.Get(); err != nil {
				die(rt, "pxnode: ping locality %d: %v", loc, err)
			}
			calls++
		}
	}
	fmt.Printf("pxnode: ping %d calls, %.1fµs mean round trip\n",
		calls, float64(time.Since(start).Microseconds())/float64(calls))
}

// runRing sends one parcel whose continuation chain visits every locality
// in order before resolving a future back home — the locus of control
// migrates around the machine without ever returning to the sender
// mid-chain.
func runRing(rt *parallex.Runtime, home, iters int) {
	for i := 0; i < iters; i++ {
		zero, err := parallex.EncodeValue(int64(0))
		if err != nil {
			die(rt, "pxnode: %v", err)
		}
		fgid, fut := rt.NewFutureAt(home)
		cont := make([]parallex.Continuation, 0, rt.Localities())
		for loc := 1; loc < rt.Localities(); loc++ {
			cont = append(cont, parallex.Continuation{Target: rt.LocalityGID(loc), Action: "pxnode.incr"})
		}
		cont = append(cont, parallex.Continuation{Target: fgid, Action: parallex.ActionLCOSet})
		p := parallex.NewParcel(rt.LocalityGID(0), "pxnode.incr",
			parallex.NewArgs().Bytes(zero).Encode(), cont...)
		rt.SendFrom(home, p)
		v, err := fut.Get()
		if err != nil {
			die(rt, "pxnode: ring lap %d: %v", i, err)
		}
		if got := v.(int64); got != int64(rt.Localities()) {
			die(rt, "pxnode: ring lap %d counted %d hops, want %d", i, got, rt.Localities())
		}
	}
	fmt.Printf("pxnode: ring %d laps of %d hops each\n", iters, rt.Localities())
}

// newSkewedRing builds the migrate workloads' object set: one 16K-float
// vector object per locality, every one of them crammed onto the
// driver's home locality. Returns the objects and the expected sum.
func newSkewedRing(rt *parallex.Runtime, home int) ([]parallex.GID, float64) {
	n := rt.Localities()
	objs := make([]parallex.GID, n)
	var want float64
	for i := range objs {
		vec := make([]float64, 1<<14)
		for j := range vec {
			vec[j] = float64(j % 7)
		}
		if i == 0 {
			for _, v := range vec {
				want += v
			}
		}
		objs[i] = rt.NewDataAt(home, vec) // skew: everything on one locality
	}
	return objs, want
}

// sumBurst hammers every object with iters rounds of concurrent
// split-phase sum calls, verifying each result, and returns the mean
// call latency in microseconds.
func sumBurst(rt *parallex.Runtime, home int, objs []parallex.GID, iters int, want float64, tag string) float64 {
	start := time.Now()
	for it := 0; it < iters; it++ {
		futs := make([]*parallex.Future, len(objs))
		for k, obj := range objs {
			futs[k] = rt.CallFrom(home, obj, "pxnode.sum", nil)
		}
		for k, fut := range futs {
			v, err := fut.Get()
			if err != nil {
				die(rt, "pxnode: migrate burst %s call %d: %v", tag, k, err)
			}
			if got := v.(float64); got != want {
				die(rt, "pxnode: migrate burst %s object %d sum %v, want %v", tag, k, got, want)
			}
		}
	}
	calls := iters * len(objs)
	mean := float64(time.Since(start).Microseconds()) / float64(calls)
	fmt.Printf("pxnode: migrate burst %-9s %d calls, %.1fµs mean\n", tag, calls, mean)
	return mean
}

// ringPlacement resolves where every object currently lives and renders
// a locality→count histogram.
func ringPlacement(rt *parallex.Runtime, objs []parallex.GID) (map[int]int, string) {
	where := make(map[int]int)
	for _, obj := range objs {
		loc, _, err := rt.AGAS().Locate(obj)
		if err != nil {
			die(rt, "pxnode: locate %v: %v", obj, err)
		}
		where[loc]++
	}
	var sb strings.Builder
	for loc := 0; loc < rt.Localities(); loc++ {
		if n := where[loc]; n > 0 {
			fmt.Fprintf(&sb, " L%d:%d", loc, n)
		}
	}
	return where, strings.TrimSpace(sb.String())
}

// runMigrate rebalances a skewed ring with live migration: the objects
// from newSkewedRing are hammered by concurrent split-phase sum calls.
// After measuring the skewed burst the driver migrates each object to
// its own locality — crossing nodes, with parcels in flight — and
// measures the same burst against the balanced placement. This is the
// manual-placement baseline that migrate-auto must approach without any
// explicit Migrate call.
func runMigrate(rt *parallex.Runtime, home, iters int) {
	objs, want := newSkewedRing(rt, home)
	sumBurst(rt, home, objs, iters, want, "skewed")
	migStart := time.Now()
	for k, obj := range objs {
		if err := rt.Migrate(obj, k); err != nil {
			die(rt, "pxnode: migrate object %d to L%d: %v", k, k, err)
		}
	}
	fmt.Printf("pxnode: rebalanced %d objects across %d localities in %v\n",
		len(objs), rt.Localities(), time.Since(migStart))
	sumBurst(rt, home, objs, iters, want, "balanced")
}

// runMigrateAuto is the self-balancing twin of runMigrate: same skewed
// ring, same bursts, but the driver never calls Migrate. Between the
// bursts it only keeps uniform load flowing and polls the placement
// until the per-node balancers — fed by their own arrival sampling and
// cross-node load reports — have spread the ring, then measures the
// balanced burst against the placement the policy chose.
func runMigrateAuto(rt *parallex.Runtime, home, iters int) {
	objs, want := newSkewedRing(rt, home)
	n := len(objs)
	skewed := sumBurst(rt, home, objs, iters, want, "skewed")

	// Sustain load until the balancer breaks the skew: converged once the
	// objects occupy at least minSpread distinct localities and the home
	// locality has shed at least half of them. The driver never names a
	// placement — only the sampled arrivals do.
	minSpread := rt.Localities()
	if n < minSpread {
		minSpread = n
	}
	if minSpread > 3 {
		minSpread = 3
	}
	waitStart := time.Now()
	deadline := waitStart.Add(60 * time.Second)
	rounds := 0
	for {
		futs := make([]*parallex.Future, 0, n*8)
		for _, obj := range objs {
			for k := 0; k < 8; k++ {
				futs = append(futs, rt.CallFrom(home, obj, "pxnode.sum", nil))
			}
		}
		for _, fut := range futs {
			if _, err := fut.Get(); err != nil {
				die(rt, "pxnode: migrate-auto sustain: %v", err)
			}
		}
		rounds++
		where, hist := ringPlacement(rt, objs)
		if len(where) >= minSpread && where[home] <= n/2 {
			snap := rt.Metrics().Snapshot()
			fmt.Printf("pxnode: balancer spread %d objects in %v (%d sustain rounds): %s\n",
				n, time.Since(waitStart).Round(time.Millisecond), rounds, hist)
			fmt.Printf("pxnode: node 0 balance telemetry: ticks %.0f moves %.0f planned %.0f skipped(hyst %.0f rate %.0f cool %.0f)\n",
				snap["px.balance.ticks"], snap["px.balance.moves"], snap["px.balance.planned"],
				snap["px.balance.skipped_hysteresis"], snap["px.balance.skipped_ratelimit"],
				snap["px.balance.skipped_cooldown"])
			break
		}
		if time.Now().After(deadline) {
			die(rt, "pxnode: balancer never broke the skew: placement %s after %d rounds (is -balance set on EVERY node?)", hist, rounds)
		}
	}

	balanced := sumBurst(rt, home, objs, iters, want, "balanced")
	if balanced > 0 {
		fmt.Printf("pxnode: migrate-auto speedup %.2fx (skewed %.1fµs -> balanced %.1fµs per call)\n",
			skewed/balanced, skewed, balanced)
	}
}

// runReduceLCO runs the distributed-LCO flavor of the all-to-one
// collective: each locality contributes its rank into its node's leaf
// reduction, the leaves feed the AGAS-homed root, and the driver awaits
// the root — one cross-node frame per node per round instead of one per
// locality.
func runReduceLCO(rt *parallex.Runtime, home, iters int) {
	n := rt.Localities()
	want := int64(n * (n - 1) / 2)
	counts := make([]int, rt.Nodes())
	for node := range counts {
		counts[node] = rt.NodeRange(node).Count()
	}
	for i := 0; i < iters; i++ {
		id := fmt.Sprintf("pxnode-reduce-%d", i)
		red, err := collect.NewReduce(rt, home, id, counts, parallex.ReduceSum, int64(0))
		if err != nil {
			die(rt, "pxnode: reduce-lco round %d: %v", i, err)
		}
		res := red.Result(home)
		args := parallex.NewArgs().String(id).Encode()
		for loc := 0; loc < n; loc++ {
			rt.SendFrom(home, parallex.NewParcel(rt.LocalityGID(loc), "pxnode.contrib-rank", args))
		}
		v, err := res.Get()
		if err != nil {
			die(rt, "pxnode: reduce-lco round %d: %v", i, err)
		}
		if got := v.(int64); got != want {
			die(rt, "pxnode: reduce-lco round %d = %d, want %d", i, got, want)
		}
		if err := red.Free(home); err != nil {
			die(rt, "pxnode: reduce-lco round %d teardown: %v", i, err)
		}
	}
	fmt.Printf("pxnode: reduce-lco %d rounds over a %d-leaf gate tree (rank sum %d)\n",
		iters, rt.Nodes(), want)
}

// runBarrier runs machine-wide barrier rounds over distributed gate
// trees: every locality arrives and suspends until the release fans back
// out; the round is complete when every arrive action has resumed.
func runBarrier(rt *parallex.Runtime, home, iters int) {
	n := rt.Localities()
	counts := make([]int, rt.Nodes())
	for node := range counts {
		counts[node] = rt.NodeRange(node).Count()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		id := fmt.Sprintf("pxnode-barrier-%d", i)
		bar, err := collect.NewBarrier(rt, home, id, counts)
		if err != nil {
			die(rt, "pxnode: barrier round %d: %v", i, err)
		}
		rel := bar.Released(home)
		args := parallex.NewArgs().String(id).Encode()
		futs := make([]*parallex.Future, n)
		for loc := 0; loc < n; loc++ {
			futs[loc] = rt.CallFrom(home, rt.LocalityGID(loc), "pxnode.arrive", args)
		}
		// Every arrive action resumes only after the machine-wide release,
		// so resolved calls witness the whole round.
		for loc, fut := range futs {
			if _, err := fut.Get(); err != nil {
				die(rt, "pxnode: barrier round %d locality %d: %v", i, loc, err)
			}
		}
		if _, err := rel.Get(); err != nil {
			die(rt, "pxnode: barrier round %d release: %v", i, err)
		}
		if err := bar.Free(home); err != nil {
			die(rt, "pxnode: barrier round %d teardown: %v", i, err)
		}
	}
	fmt.Printf("pxnode: barrier %d rounds over %d localities, %.1fµs mean round\n",
		iters, n, float64(time.Since(start).Microseconds())/float64(iters))
}

// runReduce fans a rank query out to every locality, funnelling the
// answers into one Reduce LCO — a machine-wide all-to-one collective.
func runReduce(rt *parallex.Runtime, home, iters int) {
	n := rt.Localities()
	want := int64(n * (n - 1) / 2)
	for i := 0; i < iters; i++ {
		rgid := rt.NewDistReduceAt(home, n, parallex.ReduceSum, int64(0))
		out := rt.WaitLCO(home, rgid)
		for loc := 0; loc < n; loc++ {
			p := parallex.NewParcel(rt.LocalityGID(loc), "pxnode.rank", nil,
				parallex.Continuation{Target: rgid, Action: parallex.ActionLCOContribute})
			rt.SendFrom(home, p)
		}
		v, err := out.Get()
		if err != nil {
			die(rt, "pxnode: reduce round %d: %v", i, err)
		}
		if got := v.(int64); got != want {
			die(rt, "pxnode: reduce round %d = %d, want %d", i, got, want)
		}
		rt.FreeObject(rgid)
	}
	fmt.Printf("pxnode: reduce %d rounds over %d localities (rank sum %d)\n", iters, n, want)
}
