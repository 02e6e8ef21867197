package parallex_test

// Distributed LCO tests over real TCP: three runtime instances on
// loopback form one machine, and globally addressable futures, gates, and
// reductions are triggered across it — across live migration of the LCO
// itself, without losing or double-counting a single trigger.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	parallex "repro"
	"repro/internal/lco/collect"
	"repro/internal/transport"
)

// startTCPMachine builds a three-node TCP machine on loopback with two
// localities per node.
func startTCPMachine(t testing.TB, register func(*parallex.Runtime)) []*parallex.Runtime {
	t.Helper()
	ranges := make([][2]int, len(distRanges))
	for i, rg := range distRanges {
		ranges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tcps := make([]*transport.TCP, 3)
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
			Transport:          tr,
			NodeID:             i,
			NodeLocalities:     distRanges,
			WorkersPerLocality: 2,
			Register:           register,
		})
	}
	return rts
}

func stopMachine(t testing.TB, rts []*parallex.Runtime, wantClean bool) {
	t.Helper()
	rts[0].Wait()
	for i, rt := range rts {
		rt.Shutdown()
		if errs := rt.Errors(); wantClean && len(errs) != 0 {
			t.Errorf("node %d recorded errors: %v", i, errs)
		}
	}
}

// TestDistLCOFutureTriangleTCP is the acceptance scenario: node A (0)
// creates a future, node B (1) sets it, and node C's (2) waiting
// continuation fires — over real TCP. B's set starts as a one-hop parcel
// between B's two localities whose continuation sets the future on A.
func TestDistLCOFutureTriangleTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rts := startTCPMachine(t, func(rt *parallex.Runtime) {
		rt.MustRegisterAction("triangle.value", func(_ *parallex.Context, _ any, args *parallex.ArgsReader) (any, error) {
			v := args.Int64()
			return v, args.Err()
		})
	})
	hop := rts[1].NewDataAt(3, struct{}{})
	for round := 0; round < 8; round++ {
		fut := rts[0].NewDistFutureAt(0)                             // node A creates
		wait := rts[2].WaitLCO(4, fut)                               // node C waits
		rts[1].SendFrom(2, parallex.NewParcel(hop, "triangle.value", // node B sets
			parallex.NewArgs().Int64(int64(round*11)).Encode(),
			parallex.Continuation{Target: fut, Action: parallex.ActionLCOSet}))
		v, err := wait.Get()
		if err != nil {
			t.Fatalf("round %d: waiting continuation failed: %v", round, err)
		}
		if v.(int64) != int64(round*11) {
			t.Fatalf("round %d: got %v, want %d", round, v, round*11)
		}
		rts[0].Wait()
		rts[0].FreeObject(fut)
	}
	stopMachine(t, rts, true)
	waitGoroutines(t, baseline)
}

// TestDistLCOFutureMigratesWhileWaited repeats the triangle while the
// future's home object live-migrates to another node between the
// subscription and the set: the waiter list travels with the object, the
// stale set chases the forwarding pointer, and the waiting continuation
// still fires.
func TestDistLCOFutureMigratesWhileWaited(t *testing.T) {
	rts := startTCPMachine(t, nil)
	for round := 0; round < 6; round++ {
		fut := rts[0].NewDistFutureAt(0)
		wait := rts[2].WaitLCO(4, fut)
		rts[0].Wait()                                          // land the subscription before moving the object
		if err := rts[0].Migrate(fut, 2+round%2); err != nil { // now hosted by node 1
			t.Fatalf("round %d: migrate: %v", round, err)
		}
		if err := rts[1].SetLCO(3, fut, fmt.Sprintf("hop-%d", round)); err != nil {
			t.Fatal(err)
		}
		if v, err := wait.Get(); err != nil || v.(string) != fmt.Sprintf("hop-%d", round) {
			t.Fatalf("round %d: waiter after migration = %v, %v", round, v, err)
		}
		rts[0].Wait()
	}
	stopMachine(t, rts, true)
}

// TestDistCollectTCP runs the collect gate trees — reduce, broadcast,
// barrier — across the TCP machine.
func TestDistCollectTCP(t *testing.T) {
	rts := startTCPMachine(t, collect.RegisterActions)

	red, err := collect.NewReduce(rts[0], 0, "tcp-sum", []int{2, 2, 2}, parallex.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red.Result(0)
	for node := 0; node < 3; node++ {
		r, err := collect.AttachReduce(rts[node], "tcp-sum")
		if err != nil {
			t.Fatal(err)
		}
		rg := rts[node].NodeRange(node)
		for loc := rg.Lo; loc < rg.Hi; loc++ {
			if err := r.Contribute(loc, int64(loc)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v, err := res.Get(); err != nil || v.(int64) != 15 {
		t.Fatalf("TCP tree reduce = %v, %v; want 15", v, err)
	}

	bc, err := collect.NewBroadcast(rts[0], 1, "tcp-bcast")
	if err != nil {
		t.Fatal(err)
	}
	recvs := make([]*parallex.Future, 3)
	for node := 0; node < 3; node++ {
		b, err := collect.AttachBroadcast(rts[node], "tcp-bcast")
		if err != nil {
			t.Fatal(err)
		}
		recvs[node] = b.Recv(rts[node].NodeRange(node).Lo)
	}
	if err := bc.Send(0, int64(99)); err != nil {
		t.Fatal(err)
	}
	for node, f := range recvs {
		if v, err := f.Get(); err != nil || v.(int64) != 99 {
			t.Fatalf("node %d broadcast recv = %v, %v", node, v, err)
		}
	}

	bar, err := collect.NewBarrier(rts[0], 0, "tcp-barrier", []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	rels := make([]*parallex.Future, 3)
	bars := []*collect.Barrier{bar}
	for node := 1; node < 3; node++ {
		b, err := collect.AttachBarrier(rts[node], "tcp-barrier")
		if err != nil {
			t.Fatal(err)
		}
		bars = append(bars, b)
	}
	for node, b := range bars {
		rels[node] = b.Released(rts[node].NodeRange(node).Lo)
	}
	for node, b := range bars {
		rg := rts[node].NodeRange(node)
		b.Arrive(rg.Lo)
		b.Arrive(rg.Lo + 1)
	}
	for node, rel := range rels {
		if _, err := rel.Get(); err != nil {
			t.Fatalf("node %d barrier release: %v", node, err)
		}
	}
	stopMachine(t, rts, true)
}

// wantOneShort checks that the DistLCO g, hosted at loc on rt, is one
// trigger short of resolving and, when acc is non-nil, holds exactly acc:
// sized one past the triggers sent, it proves each was applied once.
func wantOneShort(t *testing.T, rt *parallex.Runtime, loc int, g parallex.GID, acc any) {
	t.Helper()
	obj, ok := rt.LocalObject(loc, g)
	if !ok {
		t.Fatalf("%v not hosted at L%d", g, loc)
	}
	l := obj.(*parallex.DistLCO)
	v, _, resolved := l.Resolved()
	if l.Pending() != 1 || resolved || (acc != nil && v != acc) {
		t.Fatalf("%v: %d pending, resolved=%v, accumulator %v; want 1, false and %v", g, l.Pending(), resolved, v, acc)
	}
}

// TestDistLCOSoak is the distributed LCO stress: every iteration builds a
// gate and a reduction, subscribes waiters from every node, fires
// triggers from every node while the gate migrates to another node, and
// checks exact counts. Both LCOs are sized one past the triggers sent and
// the contributions are distinct, so once the storm has landed each must
// hold exactly one short with the exact sum: a trigger lost or applied
// twice shows. PX_SOAK_ITERS scales the loop (the nightly CI soak uses
// 20); the default keeps the test in tier-1 budgets.
func TestDistLCOSoak(t *testing.T) {
	iters := 2
	if s := os.Getenv("PX_SOAK_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("PX_SOAK_ITERS=%q: %v", s, err)
		}
		iters = n
	}
	rts := startTCPMachine(t, nil)
	const perNode = 12
	const total = 3 * perNode
	// Node n contributes n*perNode+1 .. (n+1)*perNode: 1..total in all.
	const sum = total * (total + 1) / 2
	for it := 0; it < iters; it++ {
		owner := it % 3
		ownerLoc := rts[owner].NodeRange(owner).Lo
		gate := rts[owner].NewDistGateAt(ownerLoc, total+1)
		red := rts[owner].NewDistReduceAt(ownerLoc, total+1, parallex.ReduceSum, int64(0))
		gateWaits := make([]*parallex.Future, 3)
		redWaits := make([]*parallex.Future, 3)
		for node := 0; node < 3; node++ {
			lo := rts[node].NodeRange(node).Lo
			gateWaits[node] = rts[node].WaitLCO(lo, gate)
			redWaits[node] = rts[node].WaitLCO(lo, red)
		}
		// Trigger storm from every node, concurrent with a live migration
		// of the gate to the next node.
		done := make(chan error, 3)
		for node := 0; node < 3; node++ {
			go func(node int) {
				rg := rts[node].NodeRange(node)
				for i := 0; i < perNode; i++ {
					loc := rg.Lo + i%rg.Count()
					rts[node].SignalLCO(loc, gate)
					if err := rts[node].ContributeLCO(loc, red, int64(node*perNode+i+1)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(node)
		}
		next := (owner + 1) % 3
		dest := rts[next].NodeRange(next).Lo
		if err := rts[owner].Migrate(gate, dest); err != nil {
			t.Fatalf("iter %d: migrate: %v", it, err)
		}
		for i := 0; i < 3; i++ {
			if err := <-done; err != nil {
				t.Fatalf("iter %d: trigger storm: %v", it, err)
			}
		}
		rts[0].Wait()
		wantOneShort(t, rts[next], dest, gate, nil)
		wantOneShort(t, rts[owner], ownerLoc, red, int64(sum))
		rts[owner].SignalLCO(ownerLoc, gate)
		if err := rts[owner].ContributeLCO(ownerLoc, red, int64(total+1)); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 3; node++ {
			if _, err := gateWaits[node].Get(); err != nil {
				t.Fatalf("iter %d: node %d gate wait: %v", it, node, err)
			}
			v, err := redWaits[node].Get()
			if err != nil {
				t.Fatalf("iter %d: node %d reduce wait: %v", it, node, err)
			}
			if v.(int64) != sum+total+1 {
				t.Fatalf("iter %d: node %d reduce = %v, want %d", it, node, v, sum+total+1)
			}
		}
		rts[0].Wait()
	}
	t.Logf("soak: %d iters", iters)
	stopMachine(t, rts, true)
}
