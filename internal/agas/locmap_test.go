package agas

import (
	"errors"
	"testing"
)

func TestLocalityMapPartition(t *testing.T) {
	m, err := NewLocalityMap([]Range{{0, 2}, {2, 5}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 3 || m.Localities() != 6 {
		t.Fatalf("got %d nodes, %d localities", m.Nodes(), m.Localities())
	}
	wantNode := []int{0, 0, 1, 1, 1, 2}
	for loc, want := range wantNode {
		if got, ok := m.NodeOf(loc); !ok || got != want {
			t.Errorf("NodeOf(%d) = %d, %v, want %d", loc, got, ok, want)
		}
	}
	if rg, ok := m.NodeRange(1); !ok || rg != (Range{2, 5}) {
		t.Errorf("NodeRange(1) = %v, %v", rg, ok)
	}
	if m.Version() != 1 {
		t.Errorf("fresh map version = %d, want 1", m.Version())
	}

	for _, bad := range [][]Range{
		{},               // empty
		{{1, 3}},         // does not start at 0
		{{0, 2}, {3, 4}}, // gap
		{{0, 2}, {1, 4}}, // overlap
		{{0, 3}, {2, 4}}, // overlap inside the previous range
		{{0, 2}, {2, 2}}, // empty node
		{{2, 0}},         // inverted range
	} {
		if _, err := NewLocalityMap(bad); err == nil {
			t.Errorf("partition %v accepted", bad)
		}
	}
}

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLocalityMapOutOfRangeLookups(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	// A locality not in any node range is a routable miss, not node 0 and
	// not a panic: a racing membership change must surface as an error the
	// caller can turn into a typed failure, never a process crash.
	if _, ok := m.NodeOf(-1); ok {
		t.Error("NodeOf(-1) ok")
	}
	if _, ok := m.NodeOf(4); ok {
		t.Error("NodeOf(4) ok")
	}
	if _, ok := m.NodeRange(-1); ok {
		t.Error("NodeRange(-1) ok")
	}
	if _, ok := m.NodeRange(2); ok {
		t.Error("NodeRange(2) ok")
	}
	if !((Range{0, 2}).Contains(1)) || (Range{0, 2}).Contains(2) {
		t.Error("Range.Contains is not half-open")
	}
	if (Range{3, 7}).Count() != 4 {
		t.Error("Range.Count wrong")
	}
}

func TestLocalityMapJoinAndDeath(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	var events []MemberEvent
	m.Subscribe(func(ev MemberEvent) { events = append(events, ev) })

	// A join must continue the partition exactly where the map ends.
	if _, err := m.AddNode(Range{5, 7}); err == nil {
		t.Error("gapped join accepted")
	}
	if _, err := m.AddNode(Range{4, 4}); err == nil {
		t.Error("empty join accepted")
	}
	n, err := m.AddNode(Range{4, 6})
	if err != nil || n != 2 {
		t.Fatalf("AddNode = %d, %v", n, err)
	}
	if m.Nodes() != 3 || m.Localities() != 6 || m.Version() != 2 {
		t.Fatalf("after join: %d nodes, %d localities, version %d",
			m.Nodes(), m.Localities(), m.Version())
	}
	if host, ok := m.NodeOf(5); !ok || host != 2 {
		t.Fatalf("NodeOf(5) = %d, %v", host, ok)
	}

	// Death re-homes the corpse's localities onto the lowest live node and
	// marks them lost; announced ranges are preserved.
	ev, changed := m.MarkDead(1)
	if !changed || ev.Adopter != 0 || len(ev.Moved) != 2 || ev.Moved[0] != 2 || ev.Moved[1] != 3 {
		t.Fatalf("MarkDead(1) = %+v, %v", ev, changed)
	}
	if m.Alive(1) || !m.Alive(0) || !m.Alive(2) {
		t.Fatal("liveness after death wrong")
	}
	if host, ok := m.NodeOf(2); !ok || host != 0 {
		t.Fatalf("adopted NodeOf(2) = %d, %v", host, ok)
	}
	if !m.Lost(2) || !m.Lost(3) || m.Lost(0) || m.Lost(4) {
		t.Fatal("lost flags wrong")
	}
	if rg, ok := m.NodeRange(1); !ok || rg != (Range{2, 4}) {
		t.Fatalf("announced range rewritten: %v, %v", rg, ok)
	}
	// Marking a dead node again is a no-op.
	if _, changed := m.MarkDead(1); changed {
		t.Fatal("double MarkDead changed the map")
	}
	if got := m.LiveNodes(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("LiveNodes = %v", got)
	}
	if len(events) != 2 || events[0].Kind != MemberJoined || events[1].Kind != MemberDied {
		t.Fatalf("events = %+v", events)
	}

	// A second death cascades the already-adopted localities onward.
	ev, changed = m.MarkDead(0)
	if !changed || ev.Adopter != 2 || len(ev.Moved) != 4 {
		t.Fatalf("MarkDead(0) = %+v, %v", ev, changed)
	}
	for loc := 0; loc < 4; loc++ {
		if host, ok := m.NodeOf(loc); !ok || host != 2 {
			t.Fatalf("NodeOf(%d) = %d, %v after cascade", loc, host, ok)
		}
	}
}

func TestDistributedResolutionRoutesToHomeNode(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s := NewService(4)
	s.SetDistribution(m, 0)

	// A resident name resolves from the authoritative directory.
	g := s.Alloc(1, KindData)
	if owner, err := s.Owner(g); err != nil || owner != 1 {
		t.Fatalf("resident owner = %d, %v", owner, err)
	}
	// A name homed on the other node resolves to its home locality: the
	// owning node finishes resolution there.
	remote := GID{Home: 3, Kind: KindData, Seq: 77}
	if owner, err := s.Owner(remote); err != nil || owner != 3 {
		t.Fatalf("remote owner = %d, %v", owner, err)
	}
	// Allocation homed off-node is a programming error.
	mustPanic(t, "off-node alloc", func() { s.Alloc(2, KindData) })
	// The home directory accepts a migration to a locality hosted by the
	// other node: ownership is global, only the directory is local.
	if err := migrate(s, g, 2); err != nil {
		t.Errorf("cross-node migrate rejected: %v", err)
	}
	if owner, err := s.Owner(g); err != nil || owner != 2 {
		t.Errorf("after cross-node migrate owner = %d, %v; want 2", owner, err)
	}
	// Committing into a directory homed on the other node is refused: the
	// commit must be routed to the home node instead.
	remoteHomed := GID{Home: 3, Kind: KindData, Seq: 42}
	if err := migrate(s, remoteHomed, 0); err == nil {
		t.Error("migrate commit accepted for a remotely homed directory entry")
	}
	if err := s.CommitMigration(remoteHomed, 0, 2); err == nil {
		t.Error("CommitMigration accepted for a remotely homed directory entry")
	}
}

func TestImportAndForwardResolution(t *testing.T) {
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s := NewService(4)
	s.SetDistribution(m, 0) // this node hosts localities 0,1

	// An object homed on the other node but imported here resolves to its
	// local hosting locality, not back toward home.
	g := GID{Home: 3, Kind: KindData, Seq: 9}
	s.SetImport(g, 1, 2)
	if owner, gen, err := s.Locate(g); err != nil || owner != 1 || gen != 2 {
		t.Fatalf("imported Locate = %d gen %d, %v; want 1 gen 2", owner, gen, err)
	}

	// After it departs, a forwarding pointer answers with the next hop and
	// the generation of the move.
	s.DropImport(g)
	s.SetForward(g, 3, 3)
	if owner, gen, err := s.Locate(g); err != nil || owner != 3 || gen != 3 {
		t.Fatalf("forwarding verdict = %d gen %d (%v)", owner, gen, err)
	}
	if o, err := s.Owner(g); err != nil || o != 3 {
		t.Fatalf("Owner over forward = %d, %v", o, err)
	}
	// A stale forward (older generation) never overwrites a newer one.
	s.SetForward(g, 2, 1)
	if to, fgen, ok := s.Forward(g); !ok || to != 3 || fgen != 3 {
		t.Fatalf("stale SetForward overwrote: to=%d gen=%d ok=%v", to, fgen, ok)
	}
	// Free clears every trace of the name on this node.
	s.Free(g)
	if _, _, ok := s.Forward(g); ok {
		t.Fatal("Free left a forwarding pointer")
	}
	if o, _, err := s.Locate(g); err != nil || o != 3 {
		t.Fatalf("after Free resolution should fall back to home: %d, %v", o, err)
	}
}

// The hint table's whole contract: it answers only where Locate can do no
// better than the route toward home, never for first-hand resolutions, and
// a name homed here takes a "moved" verdict as the late directory commit.
func TestStaleCacheResolutionAfterMigration(t *testing.T) {
	s := NewService(4)
	s.SetDistribution(MustLocalityMap([]Range{{0, 2}, {2, 4}}), 1) // this node hosts 2,3
	g := GID{Home: 0, Kind: KindData, Seq: 11}                     // homed on the other node

	resolve := func(what string, want int) {
		t.Helper()
		if owner, err := s.ResolveCached(2, g); err != nil || owner != want {
			t.Fatalf("%s: ResolveCached = %d, %v; want %d", what, owner, err, want)
		}
	}
	firstHand := func(what string, want int, wantGen uint64) {
		t.Helper()
		if owner, gen, err := s.Locate(g); err != nil || owner != want || gen != wantGen {
			t.Fatalf("%s: Locate = %d gen %d, %v; want %d gen %d", what, owner, gen, err, want, wantGen)
		}
		if owner, gen, err := s.ResolveAuthoritative(2, g); err != nil || owner != want || gen != wantGen {
			t.Fatalf("%s: ResolveAuthoritative = %d gen %d, %v; want %d gen %d", what, owner, gen, err, want, wantGen)
		}
	}

	resolve("no hint", 0)
	firstHand("no hint", 0, 0)

	// A hint steers sends; what may be taught onward stays first-hand.
	s.Repoint(g, 3, 5)
	resolve("hinted", 3)
	firstHand("hinted", 0, 0)
	// An older (replayed) verdict cannot roll it back.
	s.Repoint(g, 1, 4)
	resolve("stale verdict", 3)

	// An import or a forwarding pointer outranks the hint.
	s.SetImport(g, 2, 6)
	resolve("imported", 2)
	s.DropImport(g)
	s.SetForward(g, 1, 7)
	resolve("forwarded", 1)
	firstHand("forwarded", 1, 7)
	s.DropForward(g)
	resolve("hint again", 3)

	// Invalidate and Free each drop it.
	s.Invalidate(2, g)
	resolve("invalidated", 0)
	s.Repoint(g, 3, 5)
	resolve("re-hinted", 3)
	s.Free(g)
	resolve("freed", 0)

	// A verdict about a name homed HERE lands in the directory iff it is
	// newer, and never creates a name.
	h := s.Alloc(2, KindData)
	s.Repoint(h, 1, 3)
	if owner, gen, err := s.Locate(h); err != nil || owner != 1 || gen != 3 {
		t.Fatalf("late commit by hint = %d gen %d, %v; want 1 gen 3", owner, gen, err)
	}
	s.Repoint(h, 0, 2)
	if owner, gen, err := s.Locate(h); err != nil || owner != 1 || gen != 3 {
		t.Fatalf("stale hint moved ownership: %d gen %d, %v", owner, gen, err)
	}
	if _, ok := s.hints.get(h); ok {
		t.Fatal("a name homed here left a hint")
	}
	// A replayed CommitMigration at an older generation is a no-op too.
	if err := s.CommitMigration(h, 3, 2); err != nil {
		t.Fatal(err)
	}
	if owner, err := s.Owner(h); err != nil || owner != 1 {
		t.Fatalf("stale commit moved ownership: %d, %v", owner, err)
	}
	unknown := GID{Home: 3, Kind: KindData, Seq: 4242}
	s.Repoint(unknown, 2, 9)
	if _, err := s.Owner(unknown); !errors.Is(err, ErrUnknown) {
		t.Fatalf("hint created a name: %v", err)
	}
}

// One-shot names (a reply future per call) must leave nothing behind:
// every table is bounded by live names and migrations, never by traffic.
func TestOneShotNamesLeaveNothingBehind(t *testing.T) {
	s := NewService(4)
	s.SetDistribution(MustLocalityMap([]Range{{0, 2}, {2, 4}}), 0)
	for i := 0; i < 1000; i++ {
		g := GID{Home: 3, Kind: KindLCO, Seq: uint64(i + 1)} // a remote caller's reply name
		if i%2 == 0 {
			g = s.Alloc(i%4/2, KindLCO)
		}
		for from := 0; from < 4; from++ {
			if _, err := s.ResolveCached(from, g); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.ResolveAuthoritative(from, g); err != nil {
				t.Fatal(err)
			}
		}
		s.Free(g)
	}
	for i, d := range s.shards.Load().dirs {
		d.entries.Range(func(k, _ any) bool {
			t.Errorf("directory %d still holds %v", i, k)
			return false
		})
	}
	for name, c := range map[string]*cowEntries{"imports": s.imports, "forwards": s.forwards, "hints": s.hints} {
		if n := len(*c.m.Load()); n != 0 {
			t.Errorf("%s holds %d entries", name, n)
		}
	}
}

func TestHardwareGIDDeterministic(t *testing.T) {
	if HardwareGID(3) != HardwareGID(3) {
		t.Fatal("hardware GID not deterministic")
	}
	s := NewService(2)
	g := s.AllocHardware(1)
	if g != HardwareGID(1) {
		t.Fatalf("AllocHardware = %v, want %v", g, HardwareGID(1))
	}
	if owner, err := s.Owner(g); err != nil || owner != 1 {
		t.Fatalf("hardware owner = %d, %v", owner, err)
	}
	// The reserved sequence cannot collide with allocated names.
	d := s.Alloc(1, KindHardware)
	if d == g {
		t.Fatal("allocated name collided with reserved hardware name")
	}
}
