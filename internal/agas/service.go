package agas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// entry is one versioned ownership record: the locality currently owning
// the object and the migration generation, which increases by one per
// migration. Generations order the knowledge different nodes hold about a
// name, so a stale "moved" verdict can never overwrite a newer one.
// Entries are immutable once published — updates replace the pointer —
// so lock-free readers never observe a half-written record.
type entry struct {
	owner int
	gen   uint64
}

// directory is the authoritative GID→locality map for names homed at one
// locality. Reads (the per-parcel resolve path) are lock-free sync.Map
// loads of immutable *entry values; read-modify-write updates (migration
// commits) serialize on mu, which plain inserts (Alloc) do not need.
type directory struct {
	mu      sync.Mutex // serializes CommitMigration read-modify-writes
	entries sync.Map   // GID -> *entry
}

// load is the lock-free read side.
func (d *directory) load(g GID) (entry, bool) {
	v, ok := d.entries.Load(g)
	if !ok {
		return entry{}, false
	}
	e := v.(*entry)
	return *e, true
}

// cowEntries is a small read-mostly GID→entry table (the import,
// forwarding and hint tables): reads load an immutable map snapshot with
// no lock, writes — migration-rate events — take the mutex, copy, and
// publish a new snapshot.
type cowEntries struct {
	mu sync.Mutex
	m  atomic.Pointer[map[GID]entry]
}

func newCOWEntries() *cowEntries {
	c := &cowEntries{}
	empty := map[GID]entry{}
	c.m.Store(&empty)
	return c
}

func (c *cowEntries) get(g GID) (entry, bool) {
	m := *c.m.Load()
	e, ok := m[g]
	return e, ok
}

// mutate publishes a new snapshot produced by applying fn to a copy of
// the current map.
func (c *cowEntries) mutate(fn func(m map[GID]entry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.m.Load()
	next := make(map[GID]entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	fn(next)
	c.m.Store(&next)
}

// raise records g → (owner, gen) unless the table already knows a
// generation at least as new, so replayed or reordered verdicts cannot
// roll an entry back.
func (c *cowEntries) raise(g GID, owner int, gen uint64) {
	if e, ok := c.get(g); ok && e.gen >= gen {
		return
	}
	c.mutate(func(m map[GID]entry) {
		if e, ok := m[g]; !ok || e.gen < gen {
			m[g] = entry{owner: owner, gen: gen}
		}
	})
}

// drop removes g. It is idempotent, and free for names the table never
// held — the overwhelmingly common case (every consumed call future is
// freed) skips the copy-on-write publish on a lock-free miss.
func (c *cowEntries) drop(g GID) {
	if _, ok := c.get(g); !ok {
		return
	}
	c.mutate(func(m map[GID]entry) {
		delete(m, g)
	})
}

// ErrUnknown reports a resolution of a name this node's authoritative
// structures have never seen — or have already freed. Callers whose
// access may race a Free (an LCO trigger on one lane, the LCO's Free on
// another) test for it with errors.Is and treat the access as benignly
// late rather than as a fault.
var ErrUnknown = errors.New("agas: unknown name")

// ErrNodeLost reports a resolution against a locality that was re-homed
// off a dead node: the authoritative directory shard died with its host,
// so the name is not merely unknown — whatever it named is gone. The
// message doubles as the wire marker (see core.IsNodeLost) because
// failure continuations flatten errors to strings across node
// boundaries.
var ErrNodeLost = errors.New("px: node lost")

// Service is the AGAS for one simulated machine: n localities, each with an
// authoritative directory for the GIDs it allocated. The service also hosts
// the hierarchical symbolic namespace. Translation is computed, not
// cached: a name homed here is one lock-free directory load away, and a
// name homed elsewhere carries its home locality in the GID.
//
// On a multi-node machine four structures cooperate to keep migrated
// names resolvable from anywhere without global coherence:
//
//   - the home directory (on the node hosting GID.Home) is authoritative
//     and versioned — every migration bumps the entry's generation;
//   - imports record objects hosted on this node whose home directory
//     lives elsewhere, so arriving parcels resolve locally;
//   - forwarding pointers record objects that migrated away from this
//     node, so in-flight parcels chase at most one hop instead of
//     bouncing through the home directory;
//   - hints record "moved" verdicts other nodes taught this one about
//     objects homed elsewhere — the one thing a node cannot work out for
//     itself. A hint is second-hand and may be out of date; a wrong one
//     costs a forwarded hop, on which Invalidate drops it.
type Service struct {
	seq atomic.Uint64
	ns  *Namespace

	// shards holds the per-locality directories behind one atomic
	// snapshot, so the per-parcel resolve path stays a lock-free load
	// while Grow (a membership join) appends localities.
	shards atomic.Pointer[svcShards]
	growMu sync.Mutex

	// imports: objects hosted by this node whose home locality is on
	// another node (installed by an inbound migration). Copy-on-write:
	// the per-parcel resolve path reads it lock-free.
	imports *cowEntries

	// forwards: objects that migrated away from this node while their home
	// directory lives elsewhere. The entry names where the departing
	// migration pushed them. Copy-on-write like imports.
	forwards *cowEntries

	// hints: where objects homed on other nodes were last reported to live
	// (Repoint). Written at migration rate, never by a resolution, so the
	// table is bounded by migrations, not by traffic. Copy-on-write like
	// imports; kept apart from forwards because Invalidate drops a hint on
	// the very resolution a forwarding pointer may just have answered.
	hints *cowEntries

	// lmap/selfNode are set when the service is one node of a multi-process
	// machine. Directories for localities hosted by other nodes are then
	// never authoritative here: resolution routes toward the home locality
	// and the owning node answers from its own directory.
	lmap     *LocalityMap
	selfNode int

	// Resolutions counts translations that consulted a resident home
	// directory; CacheHits counts translations answered without one (an
	// import, a forwarding pointer, a hint, or the home the name carries).
	// Locate books every translation exactly once. The ratio is the
	// address translation efficiency the paper's "efficient address
	// translation" requirement refers to. Both are striped by the
	// caller's shard, as every translation on a call's path counts one.
	// Forwards counts stale-translation repairs (each Invalidate), so it
	// bounds how many forwarded hops parcels took.
	Resolutions metrics.Striped
	CacheHits   metrics.Striped
	Forwards    atomic.Uint64
}

// svcShards is one immutable snapshot of the per-locality structures.
type svcShards struct {
	n    int
	dirs []*directory
}

// NewService creates an AGAS over n localities.
func NewService(n int) *Service {
	if n <= 0 {
		panic("agas: locality count must be positive")
	}
	s := &Service{
		ns:       NewNamespace(),
		imports:  newCOWEntries(),
		forwards: newCOWEntries(),
		hints:    newCOWEntries(),
	}
	sh := &svcShards{n: n, dirs: make([]*directory, n)}
	for i := 0; i < n; i++ {
		sh.dirs[i] = &directory{}
	}
	s.shards.Store(sh)
	return s
}

// Grow extends the service to n localities (a membership join announced
// new ones). Existing directories are shared by the new snapshot; growth
// to a smaller or equal count is a no-op.
func (s *Service) Grow(n int) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := s.shards.Load()
	if n <= old.n {
		return
	}
	sh := &svcShards{
		n:    n,
		dirs: append(append(make([]*directory, 0, n), old.dirs...), make([]*directory, n-old.n)...),
	}
	for i := old.n; i < n; i++ {
		sh.dirs[i] = &directory{}
	}
	s.shards.Store(sh)
}

// SetDistribution marks this service as node selfNode of a multi-process
// machine partitioned by m. It must be called before any allocation and m
// must span exactly the service's locality count.
func (s *Service) SetDistribution(m *LocalityMap, selfNode int) {
	if m.Localities() != s.shards.Load().n {
		panic(fmt.Sprintf("agas: locality map spans %d localities, service %d", m.Localities(), s.shards.Load().n))
	}
	if selfNode < 0 || selfNode >= m.Nodes() {
		panic(fmt.Sprintf("agas: node %d outside map of %d nodes", selfNode, m.Nodes()))
	}
	s.lmap = m
	s.selfNode = selfNode
}

// resident reports whether locality loc is hosted by this node (always
// true for a single-process machine).
func (s *Service) resident(loc int) bool {
	if s.lmap == nil {
		return true
	}
	n, ok := s.lmap.NodeOf(loc)
	return ok && n == s.selfNode
}

// hostOf names the node hosting locality loc for error messages (-1 when
// the locality is outside the map).
func (s *Service) hostOf(loc int) int {
	if s.lmap == nil {
		return s.selfNode
	}
	n, ok := s.lmap.NodeOf(loc)
	if !ok {
		return -1
	}
	return n
}

// Localities reports the number of localities the service spans.
func (s *Service) Localities() int { return s.shards.Load().n }

// Namespace returns the symbolic hierarchical namespace.
func (s *Service) Namespace() *Namespace { return s.ns }

// DirLen reports how many names locality loc's home directory holds: an
// instrumentation hook, as locality.Store.Len is for objects.
func (s *Service) DirLen(loc int) int {
	n := 0
	s.shards.Load().dirs[loc].entries.Range(func(any, any) bool { n++; return true })
	return n
}

// Alloc mints a fresh GID of the given kind homed (and initially owned) at
// locality home.
func (s *Service) Alloc(home int, kind Kind) GID {
	s.checkLoc(home)
	if kind == KindInvalid || kind == KindReply {
		panic(fmt.Sprintf("agas: cannot allocate a name of kind %s", kind))
	}
	if !s.resident(home) {
		panic(fmt.Sprintf("agas: alloc homed at locality %d, hosted by node %d not node %d",
			home, s.hostOf(home), s.selfNode))
	}
	g := GID{Home: uint32(home), Kind: kind, Seq: s.seq.Add(1)}
	s.shards.Load().dirs[home].entries.Store(g, &entry{owner: home, gen: 1})
	return g
}

// hardwareSeq is the reserved sequence number of locality hardware names.
// It sits at the top of the sequence space, unreachable by Alloc, so every
// node of a distributed machine can compute any locality's hardware GID
// without consulting that locality's directory.
const hardwareSeq = ^uint64(0)

// HardwareGID returns the well-known typed name of locality loc's hardware
// object. The name is deterministic: it does not consume a sequence number
// and is identical on every node.
func HardwareGID(loc int) GID {
	return GID{Home: uint32(loc), Kind: KindHardware, Seq: hardwareSeq}
}

// AllocHardware registers the well-known hardware name for resident
// locality home in its directory and returns it.
func (s *Service) AllocHardware(home int) GID {
	s.checkLoc(home)
	if !s.resident(home) {
		panic(fmt.Sprintf("agas: hardware name for locality %d registered off its node", home))
	}
	g := HardwareGID(home)
	s.shards.Load().dirs[home].entries.Store(g, &entry{owner: home, gen: 1})
	return g
}

// wellKnownBase is the bottom of the reserved well-known sequence band:
// [wellKnownBase, hardwareSeq). Like hardwareSeq itself, the band sits at
// the top of the sequence space, unreachable by Alloc, so deterministic
// service names (KV shards, directory roots) can be computed on any node
// without a directory consult.
const wellKnownBase = hardwareSeq - 1<<16

// WellKnownGID returns the deterministic typed name of well-known slot
// (0 <= slot < 65535) at locality loc. The name does not consume a
// sequence number and is identical on every node, so clients of a named
// service address its per-locality objects directly — no directory
// round-trip, exactly like HardwareGID.
func WellKnownGID(loc int, kind Kind, slot int) GID {
	if slot < 0 || uint64(slot) >= hardwareSeq-wellKnownBase {
		panic(fmt.Sprintf("agas: well-known slot %d outside the reserved band", slot))
	}
	return GID{Home: uint32(loc), Kind: kind, Seq: wellKnownBase + uint64(slot)}
}

// AllocWellKnown registers the well-known name of slot at resident
// locality home in its directory and returns it. Registration is
// idempotent: re-registering a live slot keeps the existing entry (and
// its generation), so a service may install its names on every startup
// path without racing itself.
func (s *Service) AllocWellKnown(home int, kind Kind, slot int) GID {
	s.checkLoc(home)
	if kind == KindInvalid {
		panic("agas: cannot allocate invalid kind")
	}
	if !s.resident(home) {
		panic(fmt.Sprintf("agas: well-known name for locality %d registered off its node", home))
	}
	g := WellKnownGID(home, kind, slot)
	s.shards.Load().dirs[home].entries.LoadOrStore(g, &entry{owner: home, gen: 1})
	return g
}

// Owner is Locate without the generation.
func (s *Service) Owner(g GID) (int, error) {
	owner, _, err := s.Locate(g)
	return owner, err
}

// Locate is the one resolution every caller shares: the best current owner
// of g this node can work out for itself, with the migration generation of
// the answer. It prefers, in order: the import table (the object lives
// here), the authoritative home directory (when the home locality is hosted
// here — unknown names report ErrUnknown or ErrNodeLost), a forwarding
// pointer (the object lived here once and departed), and finally the home
// locality the name carries, at generation 0 — the parcel layer then
// routes toward it and the owning node completes resolution. A reply name
// (KindReply) is in none of the tables and never moves: its answer is the
// home it carries, on every node. It counts on shard 0 (see LocateAt).
func (s *Service) Locate(g GID) (int, uint64, error) { return s.LocateAt(0, g) }

// LocateAt is Locate for a caller on shard (see parcel.Shard): the
// translation is counted on that shard's stripe of CacheHits or
// Resolutions.
func (s *Service) LocateAt(shard int, g GID) (int, uint64, error) {
	if g.IsNil() {
		return 0, 0, fmt.Errorf("agas: resolve of nil GID")
	}
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n {
		return 0, 0, fmt.Errorf("agas: %v homed beyond machine (%d localities)", g, sh.n)
	}
	if g.Kind == KindReply {
		s.CacheHits.AddAt(shard, 1)
		return home, 0, nil
	}
	if e, ok := s.imports.get(g); ok {
		s.CacheHits.AddAt(shard, 1)
		return e.owner, e.gen, nil
	}
	if !s.resident(home) {
		s.CacheHits.AddAt(shard, 1)
		if e, ok := s.forwards.get(g); ok {
			return e.owner, e.gen, nil
		}
		return home, 0, nil
	}
	s.Resolutions.AddAt(shard, 1)
	e, ok := sh.dirs[home].load(g)
	if !ok {
		// A miss in an adopted directory shard is not "never existed":
		// the authoritative entries died with the locality's original
		// host. Surface the typed verdict so LCO waiters and serving
		// clients see a node loss, not a benign unknown name.
		if s.lmap != nil && s.lmap.Lost(home) {
			return 0, 0, fmt.Errorf("%w: %v (locality %d re-homed off a dead node)", ErrNodeLost, g, home)
		}
		return 0, 0, fmt.Errorf("%w: %v", ErrUnknown, g)
	}
	return e.owner, e.gen, nil
}

// ResolveCached translates g for a parcel leaving locality from: Locate,
// plus — only where Locate can do no better than the generation-0 route
// toward home — the hint table. A hinted answer may be stale if the object
// has since moved again; callers discover that when the presumed owner
// misses the access, and then Invalidate and retry — the forwarding path
// counted by Forwards. Every read on the way is a lock-free load. It counts
// on shard 0 (see ResolveCachedAt).
func (s *Service) ResolveCached(from int, g GID) (int, error) { return s.ResolveCachedAt(0, from, g) }

// ResolveCachedAt is ResolveCached for a parcel on shard (LocateAt).
func (s *Service) ResolveCachedAt(shard, from int, g GID) (int, error) {
	s.checkLoc(from)
	owner, gen, err := s.LocateAt(shard, g)
	if err == nil && gen == 0 && g.Kind != KindReply {
		if e, ok := s.hints.get(g); ok {
			owner = e.owner
		}
	}
	return owner, err
}

// ResolveAuthoritative is Locate behind a check that locality from is
// resident here. The runtime no longer calls it: it stays only because
// pxmark's agas.resolve_authoritative_ns probe times it, and goes with that
// probe at the next change to the benchmark.
func (s *Service) ResolveAuthoritative(from int, g GID) (int, uint64, error) {
	s.checkLoc(from)
	return s.Locate(g)
}

// Invalidate drops the hint for g after a resolution from locality from
// missed its object, so the next ResolveCached routes toward the home
// directory. It records a forward.
func (s *Service) Invalidate(from int, g GID) {
	s.checkLoc(from)
	s.hints.drop(g)
	s.Forwards.Add(1)
}

// Repoint applies a "moved" verdict taught by another node: g now lives at
// owner under generation gen. For a name homed elsewhere the verdict is
// recorded as a hint; for a name homed here it is the late CommitMigration
// of a move whose directory commit never arrived. Either way the newest
// generation wins, so racing verdicts from interleaved migrations
// converge, and a verdict about a name this node cannot resolve (homed
// beyond the machine, or freed) is ignored.
func (s *Service) Repoint(g GID, owner int, gen uint64) {
	home := int(g.Home)
	if home >= s.shards.Load().n {
		return
	}
	if s.resident(home) {
		_ = s.CommitMigration(g, owner, gen) // errors only for a freed name
		return
	}
	s.hints.raise(g, owner, gen)
}

// CommitMigration records in g's home directory that the object now lives
// at locality to with the given generation. It is the directory half of a
// cross-node migration (the payload travels separately) and is monotonic:
// a commit not newer than the directory's current generation is a no-op,
// so replayed or reordered commits cannot roll ownership back.
func (s *Service) CommitMigration(g GID, to int, gen uint64) error {
	s.checkLoc(to)
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n {
		return fmt.Errorf("agas: %v homed beyond machine", g)
	}
	if !s.resident(home) {
		return fmt.Errorf("agas: directory for %v is on node %d; commit the migration there", g, s.hostOf(home))
	}
	d := sh.dirs[home]
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.load(g)
	if !ok {
		return fmt.Errorf("agas: migration commit for unknown name %v", g)
	}
	if gen > e.gen {
		d.entries.Store(g, &entry{owner: to, gen: gen})
	}
	return nil
}

// SetImport records that g — homed on another node — now lives at resident
// locality loc with the given generation. Arriving parcels then resolve to
// loc locally instead of bouncing back toward the home directory.
func (s *Service) SetImport(g GID, loc int, gen uint64) {
	s.checkLoc(loc)
	s.imports.mutate(func(m map[GID]entry) {
		m[g] = entry{owner: loc, gen: gen}
	})
}

// DropImport removes the import record for g (the object migrated away or
// was freed).
func (s *Service) DropImport(g GID) { s.imports.drop(g) }

// SetForward leaves a forwarding pointer: g migrated away from this node
// to locality `to` at the given generation. Subsequent resolutions here
// answer `to`, so in-flight parcels chase one hop instead of detouring
// through the home directory.
func (s *Service) SetForward(g GID, to int, gen uint64) {
	s.checkLoc(to)
	s.forwards.raise(g, to, gen)
}

// Forward reports the forwarding pointer for g, if this node left one.
func (s *Service) Forward(g GID) (to int, gen uint64, ok bool) {
	e, ok := s.forwards.get(g)
	return e.owner, e.gen, ok
}

// DropForward removes the forwarding pointer for g (the object came back,
// or was freed machine-wide).
func (s *Service) DropForward(g GID) { s.forwards.drop(g) }

// Free removes g from its home directory and the import, forwarding and
// hint tables, and is idempotent. Directory entries homed on other nodes
// are left to their owning node.
func (s *Service) Free(g GID) {
	s.imports.drop(g)
	s.forwards.drop(g)
	s.hints.drop(g)
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n || !s.resident(home) {
		return
	}
	// The delete serializes with CommitMigration's read-modify-write on
	// the same mutex: otherwise a concurrent migration that
	// loaded the entry before this free could re-publish it afterwards,
	// resurrecting the freed name in the directory.
	d := sh.dirs[home]
	d.mu.Lock()
	d.entries.Delete(g)
	d.mu.Unlock()
}

func (s *Service) checkLoc(i int) {
	if n := s.shards.Load().n; i < 0 || i >= n {
		panic(fmt.Sprintf("agas: locality %d out of range [0,%d)", i, n))
	}
}
