package core

import (
	"testing"

	"repro/internal/transport"
)

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
