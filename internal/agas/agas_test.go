package agas

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// migrate commits a move of g to locality to at the next generation.
func migrate(s *Service, g GID, to int) error {
	_, gen, err := s.Locate(g)
	if err != nil {
		return err
	}
	return s.CommitMigration(g, to, gen+1)
}

func TestGIDEncodeDecodeRoundTrip(t *testing.T) {
	g := GID{Home: 42, Kind: KindLCO, Seq: 987654321}
	buf := g.Encode(nil)
	if len(buf) != GIDSize {
		t.Fatalf("encoded size = %d, want %d", len(buf), GIDSize)
	}
	got, rest, err := DecodeGID(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("round trip = %v, want %v", got, g)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
}

func TestPropertyGIDRoundTrip(t *testing.T) {
	f := func(home uint32, kind uint8, seq uint64, tail []byte) bool {
		g := GID{Home: home, Kind: Kind(kind % 7), Seq: seq}
		buf := g.Encode(nil)
		buf = append(buf, tail...)
		got, rest, err := DecodeGID(buf)
		return err == nil && got == g && len(rest) == len(tail)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortGID(t *testing.T) {
	if _, _, err := DecodeGID(make([]byte, 7)); err == nil {
		t.Fatal("short decode succeeded")
	}
}

func TestNilGID(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil is not nil")
	}
	g := GID{Home: 1, Kind: KindData, Seq: 1}
	if g.IsNil() {
		t.Fatal("valid GID reported nil")
	}
	if Nil.String() != "gid(nil)" {
		t.Fatalf("Nil string = %q", Nil.String())
	}
}

func TestAllocDistinct(t *testing.T) {
	s := NewService(4)
	seen := make(map[GID]bool)
	for i := 0; i < 1000; i++ {
		g := s.Alloc(i%4, KindData)
		if seen[g] {
			t.Fatalf("duplicate GID %v", g)
		}
		seen[g] = true
	}
}

func TestWellKnownGIDDeterministic(t *testing.T) {
	// The whole point: any node computes the same name without a
	// directory consult, and the name never collides with Alloc output.
	a := WellKnownGID(3, KindData, 7)
	b := WellKnownGID(3, KindData, 7)
	if a != b {
		t.Fatalf("well-known GID not deterministic: %v vs %v", a, b)
	}
	if a == WellKnownGID(3, KindData, 8) || a == WellKnownGID(2, KindData, 7) {
		t.Fatal("distinct slots/localities collide")
	}
	if a == HardwareGID(3) {
		t.Fatal("well-known band collides with the hardware name")
	}
	s := NewService(4)
	for i := 0; i < 1000; i++ {
		if g := s.Alloc(3, KindData); g == a {
			t.Fatal("Alloc minted a reserved well-known sequence number")
		}
	}
}

func TestAllocWellKnownIdempotent(t *testing.T) {
	s := NewService(4)
	g := s.AllocWellKnown(2, KindData, 0)
	if owner, err := s.Owner(g); err != nil || owner != 2 {
		t.Fatalf("owner = %d, %v; want 2", owner, err)
	}
	_, gen1, _ := s.Locate(g)
	if g2 := s.AllocWellKnown(2, KindData, 0); g2 != g {
		t.Fatalf("re-registration changed the name: %v vs %v", g2, g)
	}
	_, gen2, err := s.Locate(g)
	if err != nil || gen2 != gen1 {
		t.Fatalf("re-registration disturbed the live entry: gen %d -> %d, %v", gen1, gen2, err)
	}
}

func TestWellKnownSlotBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-band slot did not panic")
		}
	}()
	WellKnownGID(0, KindData, 1<<16)
}

func TestOwnerAfterAlloc(t *testing.T) {
	s := NewService(4)
	g := s.Alloc(2, KindData)
	owner, err := s.Owner(g)
	if err != nil {
		t.Fatal(err)
	}
	if owner != 2 {
		t.Fatalf("owner = %d, want 2", owner)
	}
}

func TestOwnerUnknown(t *testing.T) {
	s := NewService(2)
	if _, err := s.Owner(GID{Home: 0, Kind: KindData, Seq: 999}); err == nil {
		t.Fatal("unknown name resolved")
	}
	if _, err := s.Owner(Nil); err == nil {
		t.Fatal("nil name resolved")
	}
	if _, err := s.Owner(GID{Home: 7, Kind: KindData, Seq: 1}); err == nil {
		t.Fatal("out-of-machine home resolved")
	}
}

func TestMigrationMovesOwnership(t *testing.T) {
	s := NewService(4)
	g := s.Alloc(0, KindData)
	if err := migrate(s, g, 3); err != nil {
		t.Fatal(err)
	}
	owner, gen, err := s.Locate(g)
	if err != nil {
		t.Fatal(err)
	}
	if owner != 3 {
		t.Fatalf("owner after migrate = %d, want 3", owner)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}
}

// A directory commit is visible to every locality of the node at once:
// nothing in front of the directory can hold the old owner.
func TestCachedResolutionGoesStale(t *testing.T) {
	s := NewService(4)
	g := s.Alloc(0, KindData)
	for from := 0; from < 4; from++ {
		if owner, err := s.ResolveCached(from, g); err != nil || owner != 0 {
			t.Fatalf("resolve from %d = %d, %v", from, owner, err)
		}
	}
	if err := migrate(s, g, 2); err != nil {
		t.Fatal(err)
	}
	for from := 0; from < 4; from++ {
		if owner, err := s.ResolveCached(from, g); err != nil || owner != 2 {
			t.Fatalf("resolve from %d after commit = %d, %v; want 2 with no Invalidate", from, owner, err)
		}
	}
	// The forwarding repair still counts its hop.
	s.Invalidate(1, g)
	if fresh, _ := s.ResolveCached(1, g); fresh != 2 {
		t.Fatalf("post-invalidate resolve = %d, want 2", fresh)
	}
	if s.Forwards.Load() != 1 {
		t.Fatalf("forwards = %d, want 1", s.Forwards.Load())
	}
}

// Every translation is booked exactly once: as a resolution when a
// resident directory answered, as a hit when none was needed.
func TestCacheHitAccounting(t *testing.T) {
	s := NewService(4)
	s.SetDistribution(MustLocalityMap([]Range{{0, 2}, {2, 4}}), 0)
	here := s.Alloc(0, KindData)
	there := GID{Home: 3, Kind: KindData, Seq: 7}
	for i := 1; i <= 3; i++ {
		s.ResolveCached(1, here)
		if res, hits := s.Resolutions.Value(), s.CacheHits.Value(); res != int64(i) || hits != 0 {
			t.Fatalf("after %d resolves of a name homed here: resolutions %d hits %d", i, res, hits)
		}
	}
	for i := 1; i <= 3; i++ {
		s.ResolveCached(1, there)
		if res, hits := s.Resolutions.Value(), s.CacheHits.Value(); res != 3 || hits != int64(i) {
			t.Fatalf("after %d resolves of a name homed away: resolutions %d hits %d", i, res, hits)
		}
	}
	// A hinted answer and an authoritative one are still one translation each.
	s.Repoint(there, 2, 5)
	s.ResolveCached(0, there)
	s.ResolveAuthoritative(0, there)
	s.ResolveAuthoritative(0, here)
	if res, hits := s.Resolutions.Value(), s.CacheHits.Value(); res != 4 || hits != 5 {
		t.Fatalf("resolutions %d hits %d; want 4 and 5", res, hits)
	}
}

// A reply name resolves to the home it carries on every node — resident
// home or not, hinted or not, adopted off a dead node or not — and counts
// as a translation that needed no directory.
func TestReplyNamesResolveToTheirHome(t *testing.T) {
	s := NewService(4)
	m := MustLocalityMap([]Range{{0, 2}, {2, 4}})
	s.SetDistribution(m, 0)
	for _, home := range []uint32{1, 3} {
		g := GID{Home: home, Kind: KindReply, Seq: 1<<52 | 7<<32 | 9}
		s.Repoint(g, 0, 4) // a forged "moved" verdict must not redirect a reply
		for _, resolve := range []func() (int, error){
			func() (int, error) { return s.ResolveCached(0, g) },
			func() (int, error) { o, _, err := s.ResolveAuthoritative(0, g); return o, err },
		} {
			if owner, err := resolve(); err != nil || owner != int(home) {
				t.Fatalf("reply homed at %d resolved to %d, %v", home, owner, err)
			}
		}
		s.Free(g)
	}
	if res, hits := s.Resolutions.Value(), s.CacheHits.Value(); res != 0 || hits != 4 {
		t.Fatalf("resolutions %d hits %d; want 0 and 4", res, hits)
	}
	m.MarkDead(1)
	if owner, err := s.Owner(GID{Home: 3, Kind: KindReply, Seq: 1}); err != nil || owner != 3 {
		t.Fatalf("reply homed on an adopted locality: %d, %v", owner, err)
	}
	if _, err := s.Owner(GID{Home: 4, Kind: KindReply, Seq: 1}); err == nil {
		t.Fatal("reply homed beyond the machine resolved")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc minted a reply name")
		}
	}()
	s.Alloc(0, KindReply)
}

func TestFreeRemovesName(t *testing.T) {
	s := NewService(2)
	g := s.Alloc(0, KindData)
	s.Free(g)
	if _, err := s.Owner(g); err == nil {
		t.Fatal("freed name still resolves")
	}
	s.Free(g) // idempotent
}

func TestMigrateUnknown(t *testing.T) {
	s := NewService(2)
	if err := migrate(s, GID{Home: 0, Kind: KindData, Seq: 12345}, 1); err == nil {
		t.Fatal("migrating unknown name succeeded")
	}
}

// Property: after an arbitrary sequence of migrations, the authoritative
// owner is the last migration target, and invalidate+resolve from any
// locality agrees with it.
func TestPropertyMigrationConverges(t *testing.T) {
	f := func(moves []uint8, viewer uint8) bool {
		const n = 8
		s := NewService(n)
		g := s.Alloc(0, KindData)
		last := 0
		for _, m := range moves {
			to := int(m) % n
			if err := migrate(s, g, to); err != nil {
				return false
			}
			last = to
		}
		v := int(viewer) % n
		s.ResolveCached(v, g)
		s.Invalidate(v, g)
		got, err := s.ResolveCached(v, g)
		return err == nil && got == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocAndResolve(t *testing.T) {
	s := NewService(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []GID
			for i := 0; i < 200; i++ {
				g := s.Alloc(w, KindData)
				mine = append(mine, g)
				probe := mine[rng.Intn(len(mine))]
				if _, err := s.ResolveCached(w, probe); err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				if rng.Intn(4) == 0 {
					migrate(s, probe, rng.Intn(8))
				}
			}
		}()
	}
	wg.Wait()
}

func TestNamespaceBindLookup(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	if err := ns.Bind("/app/mesh/block3", g); err != nil {
		t.Fatal(err)
	}
	got, err := ns.Lookup("/app/mesh/block3")
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("lookup = %v, want %v", got, g)
	}
}

func TestNamespaceRejectsDoubleBind(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	if err := ns.Bind("/x", g); err != nil {
		t.Fatal(err)
	}
	if err := ns.Bind("/x", g); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestNamespaceValidation(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	for _, bad := range []string{"relative/path", "", "/", "//x", "/a//b"} {
		if err := ns.Bind(bad, g); err == nil {
			t.Errorf("bind of %q succeeded", bad)
		}
	}
	if err := ns.Bind("/ok", Nil); err == nil {
		t.Error("bind of nil GID succeeded")
	}
}

func TestNamespaceDirectoryIsNotAName(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	ns.Bind("/a/b", g)
	if _, err := ns.Lookup("/a"); err == nil {
		t.Fatal("lookup of directory succeeded")
	}
}

func TestNamespaceUnbind(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	ns.Bind("/a/b", g)
	if err := ns.Unbind("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Lookup("/a/b"); err == nil {
		t.Fatal("lookup after unbind succeeded")
	}
	if err := ns.Unbind("/a/b"); err == nil {
		t.Fatal("double unbind succeeded")
	}
	// Rebinding after unbind is allowed.
	if err := ns.Bind("/a/b", g); err != nil {
		t.Fatal(err)
	}
}

func TestNamespaceList(t *testing.T) {
	ns := NewNamespace()
	g := GID{Home: 1, Kind: KindData, Seq: 7}
	for _, p := range []string{"/app/a", "/app/b/c", "/sys/clock", "/app/b/d"} {
		if err := ns.Bind(p, g); err != nil {
			t.Fatal(err)
		}
	}
	got := ns.List("/app")
	want := []string{"/app/a", "/app/b/c", "/app/b/d"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	all := ns.List("/")
	if len(all) != 4 {
		t.Fatalf("List(/) = %v", all)
	}
	if ns.List("/nosuch") != nil {
		t.Fatal("List of missing prefix should be nil")
	}
}

func TestKindString(t *testing.T) {
	if KindAction.String() != "action" {
		t.Fatalf("KindAction = %q", KindAction)
	}
	if KindReply.String() != "reply" || KindReply.Movable() || KindHardware.Movable() || !KindLCO.Movable() {
		t.Fatalf("KindReply = %q, movable %v", KindReply, KindReply.Movable())
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
