package parallex_test

// One benchmark per experiment of the reproduction (DESIGN.md §4):
// E1/E2 regenerate the paper's Figure 1 and §3.2 design-point table;
// E3–E10 and A1–A4 exercise the model's quantitative claims. Each
// benchmark reports the experiment's headline figure as a custom metric so
// `go test -bench . -benchmem` regenerates the whole evaluation. The same
// code paths print full tables via cmd/pxbench.

import (
	"testing"
	"time"

	parallex "repro"
	"repro/internal/echo"
	"repro/internal/experiments"
	"repro/internal/gilgamesh"
	"repro/internal/litlx"
	"repro/internal/locality"
	"repro/internal/parcel"
	"repro/internal/schedbench"
	"repro/internal/workloads"
)

// --- scheduler and wire microbenchmarks (bodies in internal/schedbench,
// whose allocation test calls the same bodies) ---

// BenchmarkSchedPostDispatchMutex is the retired single-mutex scheduler
// under an 8-producer flood on 8 workers: the baseline the deque scheduler
// is required to beat by >= 2x (CI compares the two within one run).
func BenchmarkSchedPostDispatchMutex(b *testing.B) {
	schedbench.PostDispatchMutex(b, 8, 8)
}

// BenchmarkSchedPostDispatchDeques is the same flood on the per-worker
// stealing deque scheduler.
func BenchmarkSchedPostDispatchDeques(b *testing.B) {
	schedbench.PostDispatchDeques(b, 8, 8)
}

// BenchmarkSchedPingPong bounces one task chain between two one-worker
// localities: post-to-dispatch latency with no parallelism to hide it.
func BenchmarkSchedPingPong(b *testing.B) {
	schedbench.PingPong(b)
}

// BenchmarkSchedStealImbalance floods one locality while three idle
// localities steal from it.
func BenchmarkSchedStealImbalance(b *testing.B) {
	schedbench.StealImbalance(b, 3)
}

// BenchmarkSchedFanOutFanIn forks 64 threads across 4 localities and
// joins them through an LCO AndGate, per iteration.
func BenchmarkSchedFanOutFanIn(b *testing.B) {
	schedbench.FanOutFanIn(b, 64)
}

// BenchmarkSchedParcelFlood floods nop parcels across two localities
// through the full post/route/encode/decode/dispatch path. Its allocs/op
// is pinned at 0 by TestHotPathsAllocationFree in internal/schedbench.
func BenchmarkSchedParcelFlood(b *testing.B) {
	schedbench.ParcelFlood(b, 4)
}

// BenchmarkSchedBalancerOff is the parcel flood with every adaptive-
// balancer knob set but BalanceInterval zero — balancing staged, not
// enabled. TestHotPathsAllocationFree pins it at 0 allocs/op: the
// balancer's sampling branch on the delivery path must cost nothing while
// dormant.
func BenchmarkSchedBalancerOff(b *testing.B) {
	schedbench.BalancerOff(b, 4)
}

// BenchmarkSchedParcelPingPong bounces one parcel rally between two
// localities: per-parcel latency and allocation with nothing to hide it.
// Also pinned at 0 allocs/op by TestHotPathsAllocationFree.
func BenchmarkSchedParcelPingPong(b *testing.B) {
	schedbench.ParcelPingPong(b)
}

// BenchmarkWireRoundTrip isolates the parcel wire codec round trip as the
// runtime drives it (reusable buffers, pooled parcels).
func BenchmarkWireRoundTrip(b *testing.B) {
	schedbench.WireRoundTrip(b)
}

// BenchmarkTCPRing3 runs one continuation-chain lap around a 3-node TCP
// machine on loopback per iteration, exercising parcel batching end to
// end.
func BenchmarkTCPRing3(b *testing.B) {
	schedbench.TCPRing3(b)
}

// BenchmarkWireShardedFanout runs the flood across four lanes per peer —
// the sharded-connection configuration the runtime drives with
// destination-GID affinity hashing.
func BenchmarkWireShardedFanout(b *testing.B) {
	schedbench.WireShardedFanout(b)
}

// BenchmarkWireSameHost runs the flood over the same-host Unix-domain
// fabric the transport auto-selects for colocated processes.
func BenchmarkWireSameHost(b *testing.B) {
	schedbench.WireSameHost(b)
}

// BenchmarkSchedMigrate bounces one object between two localities with
// four chasing call streams: the cost of a live migration under fire
// (fence quiesce, parking, directory commit, re-routing).
func BenchmarkSchedMigrate(b *testing.B) {
	schedbench.Migrate(b, 4)
}

// BenchmarkDistFutureRoundTrip measures one distributed-future
// synchronization across a two-node machine: create, a remote set as a
// trigger parcel, and the waiter fire back.
func BenchmarkDistFutureRoundTrip(b *testing.B) {
	schedbench.DistFutureRoundTrip(b)
}

// BenchmarkServeOpenLoop drives the sharded KV service with the
// open-loop generator on an in-process 4-locality machine and reports the
// serving latency profile as p50-ns/p99-ns/p999-ns custom units.
func BenchmarkServeOpenLoop(b *testing.B) {
	rt := parallex.New(parallex.Config{
		Localities:         4,
		WorkersPerLocality: 2,
		Register:           workloads.RegisterKVService,
	})
	defer rt.Shutdown()
	workloads.InstallKVShards(rt)
	// Warm the parcel pools and worker queues before measuring: the cold
	// first requests otherwise dominate the tail and triple the p99's
	// run-to-run spread.
	workloads.RunOpenLoop(rt, workloads.OpenLoopConfig{Rate: 5000, Requests: 200})
	b.ResetTimer()
	// The arrival rate sits well under even a single-core machine's
	// service capacity: the profile then measures dispatch latency, not
	// queueing noise, which keeps its run-to-run variance low.
	res := workloads.RunOpenLoop(rt, workloads.OpenLoopConfig{
		Rate:     5000,
		Requests: b.N,
		Timeout:  10 * time.Second,
	})
	b.StopTimer()
	if res.Lost != 0 || res.Failed != 0 || res.Completed != res.Issued {
		b.Fatalf("lost=%d failed=%d completed=%d/%d", res.Lost, res.Failed, res.Completed, res.Issued)
	}
	p50, p99, p999 := res.Percentiles()
	b.ReportMetric(p50, "p50-ns")
	b.ReportMetric(p99, "p99-ns")
	b.ReportMetric(p999, "p999-ns")
}

// BenchmarkE1Figure1Architecture regenerates Figure 1 from the model.
func BenchmarkE1Figure1Architecture(b *testing.B) {
	var fig string
	for i := 0; i < b.N; i++ {
		fig = experiments.RunE1()
	}
	b.ReportMetric(float64(len(fig)), "figure-bytes")
}

// BenchmarkE2DesignPoint recomputes and checks the §3.2 design point.
func BenchmarkE2DesignPoint(b *testing.B) {
	d := gilgamesh.Default2020()
	ok := true
	for i := 0; i < b.N; i++ {
		for _, row := range d.Check() {
			ok = ok && row.OK
		}
	}
	if !ok {
		b.Fatal("design point check failed")
	}
	dv := d.Derive()
	b.ReportMetric(dv.SystemPeakFlops/1e18, "system-EF")
	b.ReportMetric(dv.ChipPeakFlops/1e12, "chip-TF")
}

// BenchmarkE3LatencyHiding reports the CSP/ParalleX makespan ratio for
// remote updates at 500µs latency.
func BenchmarkE3LatencyHiding(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rs := experiments.RunE3([]time.Duration{500 * time.Microsecond}, 4, 40, nil)
		ratio = float64(rs[0].CSP) / float64(rs[0].ParalleX)
	}
	b.ReportMetric(ratio, "csp/px")
}

// BenchmarkE4OverheadGranularity reports ParalleX efficiency at a 5ms
// grain and the measured per-task overhead.
func BenchmarkE4OverheadGranularity(b *testing.B) {
	var rs []experiments.E4Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE4([]time.Duration{5 * time.Millisecond}, 60, 4, 20*time.Microsecond)
	}
	b.ReportMetric(rs[0].PxEff, "px-efficiency")
	b.ReportMetric(float64(rs[0].PxPerTaskOvh.Nanoseconds()), "ovh-ns/task")
}

// BenchmarkE5Starvation reports the static-partition slowdown on the
// clustered N-body workload.
func BenchmarkE5Starvation(b *testing.B) {
	var rs []experiments.E5Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE5([]float64{0.6}, 3000, 4, locality.FIFO, true)
	}
	b.ReportMetric(float64(rs[0].CSPTime)/float64(rs[0].PxTime), "csp/px")
	b.ReportMetric(rs[0].CSPImbalance, "csp-imbalance")
}

// BenchmarkE6LCOvsBarrier reports the barrier/LCO makespan ratio on the
// skewed phased computation.
func BenchmarkE6LCOvsBarrier(b *testing.B) {
	var rs []experiments.E6Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE6([]float64{8}, 32, 10, 4, time.Millisecond)
	}
	b.ReportMetric(float64(rs[0].BarrierTime)/float64(rs[0].LCOTime), "barrier/lco")
}

// BenchmarkE7Percolation reports accelerator utilization with and without
// prestaging on the Gilgamesh chip DES.
func BenchmarkE7Percolation(b *testing.B) {
	var rs []experiments.E7Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE7([]float64{1.0}, []int{0, 4}, 500, 1000, 2)
	}
	b.ReportMetric(rs[0].Utilization, "util-demand")
	b.ReportMetric(rs[1].Utilization, "util-percolated")
	b.ReportMetric(rs[1].SpeedupVsDemand, "speedup")
}

// BenchmarkE8Echo reports the home-read vs echo-read cost ratio.
func BenchmarkE8Echo(b *testing.B) {
	var rs []experiments.E8Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE8([]time.Duration{300 * time.Microsecond}, 4, 40)
	}
	b.ReportMetric(float64(rs[0].HomeTime)/float64(rs[0].EchoTime), "home/echo")
}

// BenchmarkE9Scaling reports ParalleX strong-scaling speedup for the tree
// workload from 1 to 4 localities.
func BenchmarkE9Scaling(b *testing.B) {
	var rs []experiments.E9Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE9([]int{1, 4}, 600, 400, 4000)
	}
	for _, r := range rs {
		if r.Workload == "nbody" && r.P == 4 {
			b.ReportMetric(r.PxSpeed, "nbody-px-speedup@4")
		}
		if r.Workload == "pic" && r.P == 4 {
			b.ReportMetric(r.PxSpeed, "pic-px-speedup@4")
		}
	}
}

// BenchmarkE10Primitives reports the core primitive costs.
func BenchmarkE10Primitives(b *testing.B) {
	var rs []experiments.E10Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunE10(2000)
	}
	for _, r := range rs {
		switch r.Name {
		case "thread spawn+run":
			b.ReportMetric(float64(r.PerOp.Nanoseconds()), "spawn-ns")
		case "parcel local":
			b.ReportMetric(float64(r.PerOp.Nanoseconds()), "parcel-local-ns")
		case "parcel remote 1-way":
			b.ReportMetric(float64(r.PerOp.Nanoseconds()), "parcel-remote-ns")
		}
	}
}

// BenchmarkA1NetworkAblation reports the E3 advantage on the Data Vortex.
func BenchmarkA1NetworkAblation(b *testing.B) {
	var rs []experiments.A1Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunA1(4, 25, 200*time.Microsecond)
	}
	for _, r := range rs {
		if r.Network == "datavortex" {
			b.ReportMetric(float64(r.E3.CSP)/float64(r.E3.ParalleX), "vortex-csp/px")
		}
	}
}

// BenchmarkA2ContinuationAblation reports the win of migrating control
// over origin round trips for a 4-stage chain.
func BenchmarkA2ContinuationAblation(b *testing.B) {
	var rs []experiments.A2Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunA2([]int{4}, 4, 300*time.Microsecond, 3)
	}
	b.ReportMetric(rs[0].RoundTripWin, "without/with")
}

// BenchmarkA3SchedulerAblation reports FIFO+steal time on the skewed load.
func BenchmarkA3SchedulerAblation(b *testing.B) {
	var rs []experiments.A3Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunA3(2000, 4)
	}
	for _, r := range rs {
		if r.Scheduler == "fifo+steal" {
			b.ReportMetric(float64(r.PxTime.Milliseconds()), "steal-ms")
		}
	}
}

// BenchmarkA4SelfBalancingAblation reports how close policy-chosen
// placement comes to hand-tuned placement on the skewed ring, and the
// gap it closes over leaving the skew alone.
func BenchmarkA4SelfBalancingAblation(b *testing.B) {
	var rs []experiments.A4Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunA4(4, 4, 3, 8)
	}
	byMode := map[string]experiments.A4Result{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	if m := byMode["manual"].CallsPerSec; m > 0 {
		b.ReportMetric(byMode["balancer"].CallsPerSec/m, "bal/manual")
	}
	if off := byMode["off"].CallsPerSec; off > 0 {
		b.ReportMetric(byMode["balancer"].CallsPerSec/off, "bal/off")
	}
	b.ReportMetric(float64(byMode["balancer"].Moves), "moves")
}

// --- micro-benchmarks of the public API, for -benchmem numbers ---

// BenchmarkX1PIMvsLoadStore reports the in-memory-thread speedup at a
// network/row ratio of 5 (the §3.2 MIND claim).
func BenchmarkX1PIMvsLoadStore(b *testing.B) {
	var rs []experiments.X1Result
	for i := 0; i < b.N; i++ {
		rs = experiments.RunX1([]float64{5}, 16, 256, 8, 30)
	}
	b.ReportMetric(rs[0].Speedup, "ls/pim")
}

// BenchmarkParcelEncodeDecode measures the wire codec.
func BenchmarkParcelEncodeDecode(b *testing.B) {
	p := parallex.NewParcel(
		parallex.GID{Home: 1, Kind: parallex.KindData, Seq: 42},
		"bench.action",
		parallex.NewArgs().Int64(7).Float64(3.14).String("payload").Encode(),
		parallex.Continuation{Target: parallex.GID{Home: 0, Kind: parallex.KindLCO, Seq: 9}, Action: parallex.ActionLCOSet},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := p.Encode(nil)
		if _, _, err := parcel.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFutureCycle measures future create/set/get.
func BenchmarkFutureCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := parallex.NewFuture()
		f.Set(i)
		f.Get()
	}
}

// benchmarkCallFrom measures one split-phase call across two localities,
// issue to answer in hand; TestCallFromAllocBudget in internal/core gates
// the allocations these report.
func benchmarkCallFrom(b *testing.B, action string, register func(*parallex.Runtime)) {
	rt := parallex.New(parallex.Config{Localities: 2, WorkersPerLocality: 2, Register: register})
	defer rt.Shutdown()
	obj := rt.NewDataAt(1, struct{}{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.CallFrom(0, obj, action, nil).Get(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallFromNop is the call whose reply carries no value.
func BenchmarkCallFromNop(b *testing.B) { benchmarkCallFrom(b, parallex.ActionNop, nil) }

// BenchmarkCallFromValue64 is the call whose reply carries 64 bytes, the
// shape of pxmark's KV get.
func BenchmarkCallFromValue64(b *testing.B) {
	value := make([]byte, 64)
	benchmarkCallFrom(b, "bench.value64", func(rt *parallex.Runtime) {
		rt.MustRegisterAction("bench.value64", func(*parallex.Context, any, *parallex.ArgsReader) (any, error) {
			return value, nil
		})
	})
}

// BenchmarkSpawnWaitLocal measures thread spawn through the runtime.
func BenchmarkSpawnWaitLocal(b *testing.B) {
	rt := parallex.New(parallex.Config{Localities: 1, WorkersPerLocality: 4})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn(0, func(*parallex.Context) {})
	}
	rt.Wait()
}

// BenchmarkBHTreeBuild measures quadtree construction (the sequential
// phase of the N-body workload).
func BenchmarkBHTreeBuild(b *testing.B) {
	bodies := workloads.GenerateClusteredBodies(2000, 0.4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workloads.BuildBHTree(bodies, 0.5)
	}
}

// BenchmarkPICSequentialStep measures one deposit/solve/push cycle.
func BenchmarkPICSequentialStep(b *testing.B) {
	p := workloads.NewPIC(10000, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step(0.01)
	}
}

// BenchmarkChipSimStream measures the Gilgamesh DES itself.
func BenchmarkChipSimStream(b *testing.B) {
	chip := gilgamesh.ChipSim{FetchCycles: 300, ComputeCycles: 100, FetchChannels: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.RunStream(1000, 4)
	}
}

// BenchmarkAGASResolveCached measures the translation fast path for a
// name homed on this node: the import-table miss, then the directory load.
func BenchmarkAGASResolveCached(b *testing.B) {
	rt := parallex.New(parallex.Config{Localities: 4})
	defer rt.Shutdown()
	g := rt.NewDataAt(2, "obj")
	svc := rt.AGAS()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ResolveCached(0, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEchoLocalRead measures an echoed variable's read path.
func BenchmarkEchoLocalRead(b *testing.B) {
	rt := parallex.New(parallex.Config{Localities: 4})
	defer rt.Shutdown()
	echo.RegisterActions(rt)
	v, err := echo.NewVar(rt, int64(1), []int{0, 1, 2, 3}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.ReadAt(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMINDSimPIM measures the MIND DES throughput.
func BenchmarkMINDSimPIM(b *testing.B) {
	m := gilgamesh.MINDSim{Banks: 16, NetCycles: 150, RowCycles: 30, ComputeCycles: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPIM(256, 8)
	}
}

// BenchmarkAtomicSection measures the LITL-X atomic section round trip.
func BenchmarkAtomicSection(b *testing.B) {
	rt := parallex.New(parallex.Config{Localities: 2})
	defer rt.Shutdown()
	litlx.RegisterActions(rt)
	api := litlx.New(rt)
	at := api.NewAtomic(1, int64(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := at.Do(0, func(s any) (any, any, error) {
			return s.(int64) + 1, nil, nil
		}).Get(); err != nil {
			b.Fatal(err)
		}
	}
}
