package parallex_test

// Adaptive self-balancing over a real 3-node TCP machine: a skewed ring
// of hot objects packed onto node 0's first locality must be spread
// across the machine by the policy engines alone — per-GID arrival
// sampling feeding hysteresis-guarded migration — and the spread must be
// a convergence, not a migration storm: once balanced, the move count
// stays bounded while load continues.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	parallex "repro"
)

// startBalanceMachine builds the three-node TCP machine with the
// balancer enabled on every node at test-aggressive settings and a
// trivial hot action registered machine-wide.
func startBalanceMachine(t *testing.T) []*parallex.Runtime {
	t.Helper()
	ranges := make([][2]int, len(distRanges))
	for i, rg := range distRanges {
		ranges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tcps := make([]*parallex.TCPTransport, 3)
	addrs := make([]string, 3)
	for i := range tcps {
		tr, err := newWireTCP(parallex.TCPTransportConfig{
			Self:   i,
			Listen: "127.0.0.1:0",
			Peers:  make([]string, 3),
			Ranges: ranges,
		})
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
		tcps[i] = tr
		addrs[i] = tr.Addr().String()
	}
	rts := make([]*parallex.Runtime, 3)
	for i, tr := range tcps {
		tr.SetPeers(addrs)
		rts[i] = parallex.New(parallex.Config{
			Transport:           tr,
			NodeID:              i,
			NodeLocalities:      distRanges,
			WorkersPerLocality:  2,
			BalanceInterval:     20 * time.Millisecond,
			BalanceSampleEvery:  1,
			BalanceHotThreshold: 4,
			BalanceMaxMoves:     2,
			Register: func(rt *parallex.Runtime) {
				rt.MustRegisterAction("bal.bump", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
					// Actions on one object are not serialized: two workers
					// of its locality may run them at once.
					return atomic.AddInt64(&target.([]int64)[0], 1), nil
				})
			},
		})
	}
	return rts
}

func migrationsTotal(rts []*parallex.Runtime) int64 {
	var n int64
	for _, rt := range rts {
		n += rt.SLOW().Migrations.Value()
	}
	return n
}

func TestDistBalanceSkewedRingTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rts := startBalanceMachine(t)

	// The skewed ring: every hot object packed onto locality 0.
	const objects = 6
	gids := make([]parallex.GID, objects)
	for i := range gids {
		gids[i] = rts[0].NewDataAt(0, []int64{0})
	}

	// Drive rounds of uniform per-object load from node 0 until the
	// balancer has broken the skew. The driver never names a placement —
	// only the sampled arrivals do.
	round := func() {
		futs := make([]*parallex.Future, 0, objects*20)
		for _, g := range gids {
			for k := 0; k < 20; k++ {
				futs = append(futs, rts[0].CallFrom(0, g, "bal.bump", nil))
			}
		}
		for _, f := range futs {
			if _, err := f.Get(); err != nil {
				t.Fatalf("bal.bump: %v", err)
			}
		}
	}
	placement := func() (map[int]int, int) {
		where := make(map[int]int)
		offHome := 0
		for _, g := range gids {
			loc, _, err := rts[0].AGAS().Locate(g)
			if err != nil {
				t.Fatalf("locate %v: %v", g, err)
			}
			where[loc]++
			if loc >= 2 { // beyond node 0's range {0,2}: crossed the wire
				offHome++
			}
		}
		return where, offHome
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		round()
		where, offHome := placement()
		// Converged enough: the skew is broken across 3+ localities and
		// at least one object migrated to another NODE (not just the
		// sibling locality) — the cross-node load reports did their job.
		if len(where) >= 3 && offHome >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("skew never broken: placement %v, %d off-node, %d migrations",
				where, offHome, migrationsTotal(rts))
		}
	}

	// No storm: once spread, continued load must not keep objects
	// bouncing. The bound covers the spread itself plus guarded
	// follow-ups; a thrashing balancer blows past it in a few ticks.
	spread := migrationsTotal(rts)
	for i := 0; i < 5; i++ {
		round()
	}
	after := migrationsTotal(rts)
	const bound = 3 * objects
	if after > bound {
		t.Fatalf("migration storm: %d total moves (> %d) for %d objects", after, bound, objects)
	}
	if after-spread > int64(objects) {
		t.Fatalf("balancer still moving after convergence: %d -> %d", spread, after)
	}

	// The balancer's own telemetry: every node ticked, and at least one
	// planned and executed moves; load reports crossed the wire.
	var ticks, moves, reports float64
	for _, rt := range rts {
		snap := rt.Metrics().Snapshot()
		ticks += snap["px.balance.ticks"]
		moves += snap["px.balance.moves"]
		reports += snap["px.balance.load_reports"]
	}
	if ticks == 0 || moves == 0 || reports == 0 {
		t.Fatalf("balancer telemetry dead: ticks %v moves %v reports %v", ticks, moves, reports)
	}

	shutdownAll(t, rts)
	waitGoroutines(t, baseline)
}
