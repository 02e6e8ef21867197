package parallex_test

// Live-migration tests over a multi-node machine: an object's payload
// crosses nodes while its global name stays valid, in-flight parcels chase
// at most one forwarded hop, and stale senders learn the new owner from
// the "moved" hint the forwarding node sends back.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	parallex "repro"
)

// startMigrationMachine builds a three-node loopback machine with the
// shared counter action registered on every node.
func startMigrationMachine(t *testing.T) []*parallex.Runtime {
	t.Helper()
	fabric := parallex.NewLoopbackFabric(3)
	trs := make([]parallex.Transport, 3)
	for i := range trs {
		trs[i] = fabric.Node(i)
	}
	rts := make([]*parallex.Runtime, 3)
	for i, tr := range trs {
		rts[i] = parallex.New(parallex.Config{
			Transport:          tr,
			NodeID:             i,
			NodeLocalities:     distRanges,
			WorkersPerLocality: 2,
			Register: func(rt *parallex.Runtime) {
				// mig.bump increments the counter object and answers with
				// the post-increment value.
				rt.MustRegisterAction("mig.bump", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
					v, ok := target.([]int64)
					if !ok || len(v) == 0 {
						return nil, fmt.Errorf("mig.bump on %T", target)
					}
					// Actions on one object are not serialized: two workers
					// of its locality may run them at once.
					return atomic.AddInt64(&v[0], 1), nil
				})
			},
		})
	}
	return rts
}

// forwardsTotal sums the stale-translation repairs every node performed.
func forwardsTotal(rts []*parallex.Runtime) uint64 {
	var n uint64
	for _, rt := range rts {
		n += rt.AGAS().Forwards.Load()
	}
	return n
}

func shutdownAll(t *testing.T, rts []*parallex.Runtime) {
	t.Helper()
	rts[0].Wait()
	for i, rt := range rts {
		rt.Shutdown()
		if errs := rt.Errors(); len(errs) != 0 {
			t.Errorf("node %d recorded errors: %v", i, errs)
		}
	}
}

// TestCrossNodeMigrationRoundTrip moves one object around all three nodes
// and back, checking payload residency, directory state, and that calls
// reach it at every stop.
func TestCrossNodeMigrationRoundTrip(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rts := startMigrationMachine(t)
	obj := rts[0].NewDataAt(1, []int64{0})

	expect := int64(0)
	call := func(rt *parallex.Runtime, src int) {
		t.Helper()
		expect++
		fut := rt.CallFrom(src, obj, "mig.bump", nil)
		if got, err := fut.Get(); err != nil || got.(int64) != expect {
			t.Fatalf("call via L%d = %v, %v; want %d", src, got, err, expect)
		}
	}
	call(rts[0], 0)

	// Node 0 pushes the object to node 1; the home directory stays on
	// node 0 but names the new owner.
	if err := rts[0].Migrate(obj, 3); err != nil {
		t.Fatalf("migrate to L3: %v", err)
	}
	if _, ok := rts[1].LocalObject(3, obj); !ok {
		t.Fatal("payload not installed at L3 on node 1")
	}
	if _, ok := rts[0].LocalObject(1, obj); ok {
		t.Fatal("payload still present at L1 on node 0")
	}
	if owner, err := rts[0].AGAS().Owner(obj); err != nil || owner != 3 {
		t.Fatalf("home directory owner = %d, %v; want 3", owner, err)
	}
	call(rts[0], 0) // home node: its own directory names the new owner
	call(rts[1], 2) // owning node: local
	call(rts[2], 4) // third party routes toward home, chases once

	// Node 1 pushes it on to node 2: the initiator is neither the home
	// node nor the destination, so this exercises the remote directory
	// commit and the forwarding pointer left at node 1.
	if err := rts[1].Migrate(obj, 5); err != nil {
		t.Fatalf("migrate to L5: %v", err)
	}
	if _, ok := rts[2].LocalObject(5, obj); !ok {
		t.Fatal("payload not installed at L5 on node 2")
	}
	if owner, err := rts[0].AGAS().Owner(obj); err != nil || owner != 5 {
		t.Fatalf("home directory owner = %d, %v; want 5", owner, err)
	}
	if to, _, ok := rts[1].AGAS().Forward(obj); !ok || to != 5 {
		t.Fatalf("node 1 forwarding pointer = %d, %v; want 5", to, ok)
	}
	call(rts[0], 1)
	call(rts[1], 3)
	call(rts[2], 5)

	// And home again: the forwarding chain collapses once the object is
	// back where its directory lives.
	if err := rts[2].Migrate(obj, 0); err != nil {
		t.Fatalf("migrate home: %v", err)
	}
	call(rts[2], 4)
	call(rts[0], 0)
	if v, ok := rts[0].LocalObject(0, obj); !ok || v.([]int64)[0] != expect {
		t.Fatalf("final payload = %v (present %v), want [%d]", v, ok, expect)
	}

	shutdownAll(t, rts)
	waitGoroutines(t, baseline)
}

// TestMovedHintHoldsThirdPartyToOneHop covers the one sender the hint
// table exists for: a node that is neither the object's home, nor its
// owner, nor a holder of a forwarding pointer. Its first call is routed
// toward home, forwarded once and hinted; every later call goes direct.
func TestMovedHintHoldsThirdPartyToOneHop(t *testing.T) {
	rts := startMigrationMachine(t)
	obj := rts[1].NewDataAt(2, []int64{0})
	if err := rts[1].Migrate(obj, 4); err != nil {
		t.Fatalf("migrate to L4: %v", err)
	}
	call := func() {
		t.Helper()
		if _, err := rts[0].CallFrom(0, obj, "mig.bump", nil).Get(); err != nil {
			t.Fatalf("call from node 0: %v", err)
		}
	}

	before := forwardsTotal(rts)
	call()
	if hops := forwardsTotal(rts) - before; hops != 1 {
		t.Fatalf("first third-party call took %d forwarded hops, want 1", hops)
	}
	// The hint is a one-way frame racing the reply: wait for it to land.
	hinted := func() bool {
		owner, err := rts[0].AGAS().ResolveCached(0, obj)
		return err == nil && owner == 4
	}
	deadline := time.Now().Add(10 * time.Second)
	for !hinted() {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never learned where the object went")
		}
		time.Sleep(time.Millisecond)
	}
	before = forwardsTotal(rts)
	for i := 0; i < 5; i++ {
		call()
	}
	if hops := forwardsTotal(rts) - before; hops != 0 {
		t.Fatalf("hinted sender took %d forwarded hops, want 0", hops)
	}
	if v, ok := rts[2].LocalObject(4, obj); !ok || v.([]int64)[0] != 6 {
		t.Fatalf("payload at L4 = %v (present %v), want [6]", v, ok)
	}

	shutdownAll(t, rts)
}

// TestMigrationStress3Node is the acceptance stress: concurrent
// split-phase calls hammer one object from every node while it migrates
// twice across nodes. No call may be lost or duplicated, Wait must return
// only at true global quiescence, and once the dust settles each stale
// sender observes at most one forwarded hop before resolving the new home
// directly.
func TestMigrationStress3Node(t *testing.T) {
	rts := startMigrationMachine(t)
	obj := rts[0].NewDataAt(0, []int64{0})

	const calls = 50
	senders := []struct {
		node int
		src  int
	}{{0, 1}, {1, 2}, {2, 4}}

	var wg sync.WaitGroup
	// progress[i] receives once per call sender i completes, and closes
	// when it stops.
	progress := make([]chan struct{}, len(senders))
	for i, s := range senders {
		progress[i] = make(chan struct{}, calls)
		wg.Add(1)
		go func(rt *parallex.Runtime, src int, done chan<- struct{}) {
			defer wg.Done()
			defer close(done)
			for i := 0; i < calls; i++ {
				fut := rt.CallFrom(src, obj, "mig.bump", nil)
				if _, err := fut.Get(); err != nil {
					t.Errorf("call from L%d: %v", src, err)
					return
				}
				done <- struct{}{}
			}
		}(rts[s.node], s.src, progress[i])
	}
	// underLoad waits until every sender has completed one more call.
	underLoad := func() {
		for _, c := range progress {
			<-c
		}
	}

	// Two cross-node moves while the calls are in flight: node 0 → node 1,
	// then node 1 → node 2, each initiated on the current owner.
	underLoad()
	if err := rts[0].Migrate(obj, 2); err != nil {
		t.Fatalf("first migration: %v", err)
	}
	underLoad()
	if err := rts[1].Migrate(obj, 4); err != nil {
		t.Fatalf("second migration: %v", err)
	}

	wg.Wait()
	rts[0].Wait()

	// Every call executed exactly once: the counter saw each increment.
	total := int64(len(senders) * calls)
	v, ok := rts[2].LocalObject(4, obj)
	if !ok {
		t.Fatal("object not resident at its final home")
	}
	if got := v.([]int64)[0]; got != total {
		t.Fatalf("counter = %d, want %d: parcels lost or duplicated", got, total)
	}
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) != 0 {
			t.Fatalf("node %d recorded errors: %v", i, errs)
		}
	}

	// Post-migration senders resolve the new home with at most one
	// forwarded hop each: a stale first call may chase once (and is
	// hinted by the forwarding node); everything after goes direct.
	before := forwardsTotal(rts)
	for _, s := range senders {
		for i := 0; i < 3; i++ {
			fut := rts[s.node].CallFrom(s.src, obj, "mig.bump", nil)
			if _, err := fut.Get(); err != nil {
				t.Fatalf("settled call from L%d: %v", s.src, err)
			}
		}
	}
	if hops := forwardsTotal(rts) - before; hops > uint64(len(senders)) {
		t.Fatalf("settled senders took %d forwarded hops, want <= %d", hops, len(senders))
	}

	shutdownAll(t, rts)
}
