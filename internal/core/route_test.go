package core

import (
	"testing"

	"repro/internal/parcel"
	"repro/internal/transport"
)

// TestNodeLocalParcelsMoveByPointer: a parcel between two localities of one
// node is handed over, never encoded, so neither leg of a node-local call
// (request to L1, reply to L0) takes an encode buffer from the pool.
func TestNodeLocalParcelsMoveByPointer(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	call := func() {
		if _, err := r.CallFrom(0, obj, ActionNop, nil).Get(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call() // warm the pools and the slot table
	}
	r.Wait()
	wireGets := func() uint64 { _, _, hits, misses := parcel.PoolStats(); return hits + misses }
	before := wireGets()
	const calls = 1000
	for i := 0; i < calls; i++ {
		call()
	}
	if got := wireGets() - before; got != 0 {
		t.Fatalf("%d node-local calls took %d WireBufs from the pool, want 0", calls, got)
	}
}

// TestRouteIntoUnadoptedLocality: a death verdict re-homes the corpse's
// localities onto this node in the membership map before adoptLocalities
// installs their execution machinery. A parcel routed in that window finds
// the map saying "here" and nothing there; it must fail with the node-lost
// verdict, not dereference the empty slot.
func TestRouteIntoUnadoptedLocality(t *testing.T) {
	fab := transport.NewFabric(2)
	rts := startInternPair(t, [2]transport.Transport{fab.Node(0), fab.Node(1)})
	rts[1].Terminate()
	rt, d := rts[0], rts[0].dist
	d.ensurePeer(1).dead.Store(true) // as declareDead does: Wait must not probe the corpse
	ev, ok := d.lmap.MarkDead(1)
	if !ok || ev.Adopter != 0 || len(ev.Moved) != 2 {
		t.Fatalf("death of node 1 did not re-home its localities onto node 0: %+v", ev)
	}
	// MarkDead ran adoption synchronously; reopen the window it closed.
	adopted := rt.locs[2].Swap(nil)
	if adopted == nil {
		t.Fatal("locality 2 was not adopted")
	}
	_, err := rt.CallFrom(0, rt.LocalityGID(2), ActionNop, nil).Get()
	if !IsNodeLost(err) {
		t.Fatalf("call into the un-adopted locality: %v, want the node-lost verdict", err)
	}
	rt.locs[2].Store(adopted)
	// Once installed, the same call runs.
	if _, err := rt.CallFrom(0, rt.LocalityGID(2), ActionNop, nil).Get(); err != nil {
		t.Fatalf("call into the adopted locality: %v", err)
	}
	rt.Shutdown()
}
