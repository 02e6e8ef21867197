package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/locality"
)

// Each experiment's test checks the paper-predicted *shape* (who wins,
// roughly by how much) with conservative margins so the suite is robust on
// loaded CI machines.

// shapeHolds re-measures a wall-clock shape up to three times and fails
// only if no attempt shows it. The paper's claims are capability claims —
// the model *can* hide this latency — and one run squeezed by the other
// packages testing in parallel on a two-CPU box says nothing about
// capability; three in a row do. measure reports whether the shape held
// and what it saw, which is logged for every attempt. Correctness
// assertions (update counts, row order) stay single-shot: measure fails
// the test directly on those.
func shapeHolds(t *testing.T, measure func() (ok bool, saw string)) {
	t.Helper()
	const attempts = 3
	for i := 1; i <= attempts; i++ {
		ok, saw := measure()
		t.Logf("attempt %d/%d: %s", i, attempts, saw)
		if ok {
			return
		}
	}
	t.Fatalf("shape violated on all %d attempts", attempts)
}

func TestE1FigureRenders(t *testing.T) {
	fig := RunE1()
	for _, want := range []string{"Data Vortex", "MIND", "Penultimate Store", "dataflow accelerator"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q", want)
		}
	}
}

func TestE2DesignPointPasses(t *testing.T) {
	rep, ok := RunE2()
	if !ok {
		t.Fatalf("design point fails reproduction:\n%s", rep)
	}
}

func TestE3ParalleXHidesLatency(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		r := RunE3([]time.Duration{500 * time.Microsecond}, 4, 50, nil)[0]
		// Correctness first: every update applied exactly once in both models.
		if r.PxApplied != 4*50 || r.CSPApplied != 4*50 {
			t.Fatalf("lost updates: px=%d csp=%d want 200", r.PxApplied, r.CSPApplied)
		}
		// Paper shape: blocking request/ack exposes the round trip per update;
		// parcels overlap them. Demand at least a 3x win at 500µs latency.
		return float64(r.CSP) >= 3*float64(r.ParalleX),
			fmt.Sprintf("latency hiding: px=%v csp=%v, want csp >= 3x px", r.ParalleX, r.CSP)
	})
}

func TestE3AdvantageTracksUpdateCount(t *testing.T) {
	// Both makespans are linear in latency — ParalleX's floor is ~one
	// exposed latency while CSP pays ~2 per update — so the ratio should
	// sit near 2K and grow with K, the number of round trips hidden.
	const lat = 1 * time.Millisecond
	shapeHolds(t, func() (bool, string) {
		few := RunE3([]time.Duration{lat}, 4, 10, nil)[0]
		many := RunE3([]time.Duration{lat}, 4, 40, nil)[0]
		rFew := float64(few.CSP) / float64(few.ParalleX)
		rMany := float64(many.CSP) / float64(many.ParalleX)
		return rFew >= 5 && rMany > rFew,
			fmt.Sprintf("K=10 %.1fx, K=40 %.1fx, want K=10 >= 5x and growing with K", rFew, rMany)
	})
}

func TestE4EfficiencyImprovesWithGrain(t *testing.T) {
	// The fine grain sits below this host's timer floor (~1ms), the coarse
	// grain well above it — the crossover the experiment is about.
	shapeHolds(t, func() (bool, string) {
		rs := RunE4([]time.Duration{100 * time.Microsecond, 5 * time.Millisecond}, 100, 4, 20*time.Microsecond)
		// Efficiency must rise with grain, and the coarse grain must be
		// efficiently exploitable.
		return rs[1].PxEff > rs[0].PxEff && rs[1].PxEff >= 0.5 && MinExploitableGrain(rs, true) >= 0,
			fmt.Sprintf("px efficiency %.2f -> %.2f, want increasing to >= 0.50 with an exploitable grain",
				rs[0].PxEff, rs[1].PxEff)
	})
}

func TestE5WorkQueueBeatsStaticPartition(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		r := RunE5([]float64{0.6}, 3000, 4, locality.FIFO, true)[0]
		if r.CSPImbalance < 1.5 {
			t.Fatalf("static partition imbalance %.2fx; workload not skewed enough", r.CSPImbalance)
		}
		// With 60% of bodies clustered, the static partition's owner rank is
		// the critical path; the work queue should win clearly.
		return float64(r.CSPTime) >= 1.2*float64(r.PxTime),
			fmt.Sprintf("starvation: px=%v csp=%v, want csp >= 1.2x px", r.PxTime, r.CSPTime)
	})
}

func TestE6LCOBeatsBarrierUnderSkew(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		r := RunE6([]float64{8}, 32, 14, 4, time.Millisecond)[0]
		return float64(r.BarrierTime) >= 1.1*float64(r.LCOTime),
			fmt.Sprintf("barrier=%v lco=%v, want barrier >= 1.1x lco", r.BarrierTime, r.LCOTime)
	})
}

func TestE7PercolationRaisesUtilization(t *testing.T) {
	rs := RunE7([]float64{1.0}, []int{0, 2}, 50, 1000, 2)
	demand, perc := rs[0], rs[1]
	if demand.Depth != 0 || perc.Depth != 2 {
		t.Fatal("unexpected row order")
	}
	if perc.Utilization <= demand.Utilization {
		t.Fatalf("percolation utilization %.3f <= demand %.3f", perc.Utilization, demand.Utilization)
	}
	if perc.SpeedupVsDemand < 1.5 {
		t.Fatalf("speedup %.2fx < 1.5x at fetch=compute", perc.SpeedupVsDemand)
	}
}

func TestE8EchoReadsDominateHomeReads(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		r := RunE8([]time.Duration{300 * time.Microsecond}, 4, 30)[0]
		return float64(r.HomeTime) >= 5*float64(r.EchoTime),
			fmt.Sprintf("echo=%v home=%v, want home >= 5x echo", r.EchoTime, r.HomeTime)
	})
}

func TestE9ProducesAllRowsAndScales(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		rs := RunE9([]int{1, 4}, 600, 400, 4000)
		if len(rs) != 6 {
			t.Fatalf("rows = %d, want 6", len(rs))
		}
		byW := map[string][]E9Result{}
		for _, r := range rs {
			byW[r.Workload] = append(byW[r.Workload], r)
			if r.PxTime <= 0 || r.CSPTime <= 0 {
				t.Fatalf("non-positive time in %+v", r)
			}
		}
		for _, w := range []string{"nbody", "bfs", "pic"} {
			if len(byW[w]) != 2 {
				t.Fatalf("workload %s has %d rows", w, len(byW[w]))
			}
		}
		// The balanced tree workload must show clear strong scaling 1 -> 4.
		speed := byW["nbody"][1].PxSpeed
		return speed >= 2.0, fmt.Sprintf("nbody ParalleX speedup at P=4 is %.2fx, want >= 2x", speed)
	})
}

func TestE10ProducesBudget(t *testing.T) {
	rs := RunE10(2000)
	names := map[string]bool{}
	for _, r := range rs {
		if r.PerOp <= 0 {
			t.Fatalf("%s: non-positive cost", r.Name)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"thread spawn+run", "future set+get", "parcel local",
		"parcel remote 1-way", "call round trip", "csp msg round trip"} {
		if !names[want] {
			t.Fatalf("missing primitive %q", want)
		}
	}
}

func TestA1AdvantageSurvivesAllNetworks(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		rs := RunA1(4, 25, 200*time.Microsecond)
		if len(rs) != 5 {
			t.Fatalf("networks = %d", len(rs))
		}
		ok, saw := true, "want csp >= 1.5x px on every real network:"
		for _, r := range rs {
			if r.Network == "ideal" {
				continue // nothing to hide on a free network
			}
			ok = ok && float64(r.E3.CSP) >= 1.5*float64(r.E3.ParalleX)
			saw += fmt.Sprintf(" %s px=%v csp=%v;", r.Network, r.E3.ParalleX, r.E3.CSP)
		}
		return ok, saw
	})
}

func TestA2ContinuationsBeatRoundTrips(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		r := RunA2([]int{4}, 4, 300*time.Microsecond, 5)[0]
		// k stages: continuations pay ~k+1 one-way latencies; round trips pay
		// ~2k. Expect a clear win for k=4.
		return r.RoundTripWin >= 1.3,
			fmt.Sprintf("continuation win %.2fx, want >= 1.3x: with=%v without=%v",
				r.RoundTripWin, r.WithCont, r.WithoutCont)
	})
}

func TestA3StealingHelpsSkewedLoad(t *testing.T) {
	shapeHolds(t, func() (bool, string) {
		byName := map[string]time.Duration{}
		for _, r := range RunA3(2000, 4) {
			byName[r.Scheduler] = r.PxTime
		}
		return byName["fifo+steal"] <= byName["fifo"]*2,
			fmt.Sprintf("fifo+steal %v vs fifo %v, want stealing within 2x", byName["fifo+steal"], byName["fifo"])
	})
}

func TestA4BalancerBreaksSkew(t *testing.T) {
	rs := RunA4(4, 4, 3, 5)
	byMode := map[string]A4Result{}
	for _, r := range rs {
		byMode[r.Mode] = r
	}
	if r := byMode["off"]; r.Spread != 1 || r.Moves != 0 {
		t.Fatalf("balancing off must leave the skew: spread %d moves %d", r.Spread, r.Moves)
	}
	if r := byMode["manual"]; r.Spread != 4 {
		t.Fatalf("manual placement spread %d, want 4", r.Spread)
	}
	r := byMode["balancer"]
	if r.Spread < 3 {
		t.Fatalf("balancer never broke the skew: spread %d, moves %d", r.Spread, r.Moves)
	}
	// Convergence, not thrash: reaching a 3-way spread needs at least 2
	// moves; the hysteresis/cooldown guards must keep the total bounded.
	if r.Moves < 2 || r.Moves > 12 {
		t.Fatalf("balancer made %d moves for 4 objects, want 2..12", r.Moves)
	}
}

func TestTablesRender(t *testing.T) {
	tab := TableE3([]E3Result{{Latency: time.Millisecond, ParalleX: time.Second, CSP: 2 * time.Second, PxApplied: 10, CSPApplied: 10}})
	s := tab.String()
	if !strings.Contains(s, "E3") || !strings.Contains(s, "2.00x") {
		t.Fatalf("table render:\n%s", s)
	}
	if TableE4(nil).String() == "" || TableE5(nil).String() == "" ||
		TableE6(nil).String() == "" || TableE7(nil).String() == "" ||
		TableE8(nil).String() == "" || TableE9(nil).String() == "" ||
		TableE10(nil).String() == "" || TableA1(nil).String() == "" ||
		TableA2(nil).String() == "" || TableA3(nil).String() == "" ||
		TableA4(nil).String() == "" {
		t.Fatal("empty table rendering")
	}
}

func TestX1PIMSpeedupGrowsWithNetworkCost(t *testing.T) {
	rs := RunX1([]float64{0.1, 5}, 8, 64, 8, 30)
	if rs[0].Speedup > rs[1].Speedup {
		t.Fatalf("PIM advantage shrank with network cost: %.2fx -> %.2fx",
			rs[0].Speedup, rs[1].Speedup)
	}
	if rs[1].Speedup < 3 {
		t.Fatalf("PIM speedup %.2fx at net/row=5, want >= 3x", rs[1].Speedup)
	}
	if TableX1(rs).String() == "" {
		t.Fatal("empty X1 table")
	}
}

func TestX2HierarchicalPercolationComposes(t *testing.T) {
	rs := RunX2([]int{0, 8}, []int{0, 4}, 30)
	byKey := map[[2]int]X2Result{}
	for _, r := range rs {
		byKey[[2]int{r.PSDepth, r.ChipDepth}] = r
	}
	none := byKey[[2]int{0, 0}]
	psOnly := byKey[[2]int{8, 0}]
	both := byKey[[2]int{8, 4}]
	if !(both.Makespan < psOnly.Makespan && psOnly.Makespan < none.Makespan) {
		t.Fatalf("hierarchy not monotone: %d / %d / %d",
			none.Makespan, psOnly.Makespan, both.Makespan)
	}
	if both.Utilization < 0.85 {
		t.Fatalf("deep pipeline utilization %.3f", both.Utilization)
	}
	if TableX2(rs).String() == "" {
		t.Fatal("empty X2 table")
	}
}
