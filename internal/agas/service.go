package agas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	mu      sync.Mutex // serializes Migrate/CommitMigration read-modify-writes
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

// cacheLine is one possibly-stale translation held by a locality, tagged
// with the migration generation it was learned at (0 when the translation
// is an unversioned route-toward-home guess). Immutable once published.
type cacheLine struct {
	owner int
	gen   uint64
}

// translationCache is a locality's private, incoherent translation cache.
// The hit path — one Load of an immutable *cacheLine — touches no locks;
// fills happen once per (locality, name) and repair writes
// (Invalidate/Repoint) ride sync.Map's compare-and-swap.
type translationCache struct {
	m sync.Map // GID -> *cacheLine
}

// cowEntries is a small read-mostly GID→entry table (the import and
// forwarding tables): reads load an immutable map snapshot with no lock,
// writes — migration-rate events — take the mutex, copy, and publish a
// new snapshot.
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

// ErrUnknown reports a resolution of a name this node's authoritative
// structures have never seen — or have already freed. Callers running
// idempotent protocols (duplicated LCO triggers racing a consumed
// one-shot future) test for it with errors.Is and treat the access as
// benignly late rather than as a fault.
var ErrUnknown = errors.New("agas: unknown name")

// ErrNodeLost reports a resolution against a locality that was re-homed
// off a dead node: the authoritative directory shard died with its host,
// so the name is not merely unknown — whatever it named is gone. The
// message doubles as the wire marker (see core.IsNodeLost) because
// failure continuations flatten errors to strings across node
// boundaries.
var ErrNodeLost = errors.New("px: node lost")

// ErrMoved reports that an object is no longer where the resolver last
// knew it: a forwarding pointer, left by a departed migration, answered
// instead of an authoritative directory. Resolutions wrapping ErrMoved
// (see MovedError) still carry a usable next hop; the parcel layer
// re-routes toward it and hints the verdict back to the sender.
var ErrMoved = errors.New("agas: object moved")

// MovedError is the resolution outcome for an object that migrated away
// from this node: To is where the departing migration pushed it (possibly
// itself stale by now) and Gen the generation of that move. It wraps
// ErrMoved so callers can test with errors.Is/errors.As.
type MovedError struct {
	GID GID
	To  int
	Gen uint64
}

// Error renders the forwarding verdict.
func (e *MovedError) Error() string {
	return fmt.Sprintf("agas: %v moved to locality %d (gen %d)", e.GID, e.To, e.Gen)
}

// Unwrap ties MovedError to the ErrMoved sentinel.
func (e *MovedError) Unwrap() error { return ErrMoved }

// Service is the AGAS for one simulated machine: n localities, each with an
// authoritative directory for the GIDs it allocated and a private
// translation cache. The service also hosts the hierarchical symbolic
// namespace.
//
// On a multi-node machine three structures cooperate to keep migrated
// names resolvable from anywhere without global coherence:
//
//   - the home directory (on the node hosting GID.Home) is authoritative
//     and versioned — every migration bumps the entry's generation;
//   - imports record objects hosted on this node whose home directory
//     lives elsewhere, so arriving parcels resolve locally;
//   - forwarding pointers record objects that migrated away from this
//     node, so in-flight parcels chase at most one hop instead of
//     bouncing through the home directory.
type Service struct {
	seq atomic.Uint64
	ns  *Namespace

	// shards holds the per-locality directories and translation caches
	// behind one atomic snapshot, so the per-parcel resolve path stays a
	// lock-free load while Grow (a membership join) appends localities.
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

	// lmap/selfNode are set when the service is one node of a multi-process
	// machine. Directories for localities hosted by other nodes are then
	// never authoritative here: resolution routes toward the home locality
	// and the owning node answers from its own directory.
	lmap     *LocalityMap
	selfNode int

	// Resolutions counts cache-miss directory consultations; CacheHits
	// counts translations answered locally. The ratio is the address
	// translation efficiency the paper's "efficient address translation"
	// requirement refers to. Forwards counts stale-translation repairs
	// (each Invalidate), so it bounds how many forwarded hops parcels took.
	Resolutions atomic.Uint64
	CacheHits   atomic.Uint64
	Forwards    atomic.Uint64
}

// svcShards is one immutable snapshot of the per-locality structures.
type svcShards struct {
	n      int
	dirs   []*directory
	caches []*translationCache
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
	}
	sh := &svcShards{n: n, dirs: make([]*directory, n), caches: make([]*translationCache, n)}
	for i := 0; i < n; i++ {
		sh.dirs[i] = &directory{}
		sh.caches[i] = &translationCache{}
	}
	s.shards.Store(sh)
	return s
}

// Grow extends the service to n localities (a membership join announced
// new ones). Existing directories and caches are shared by the new
// snapshot; growth to a smaller or equal count is a no-op.
func (s *Service) Grow(n int) {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	old := s.shards.Load()
	if n <= old.n {
		return
	}
	sh := &svcShards{
		n:      n,
		dirs:   append(append(make([]*directory, 0, n), old.dirs...), make([]*directory, n-old.n)...),
		caches: append(append(make([]*translationCache, 0, n), old.caches...), make([]*translationCache, n-old.n)...),
	}
	for i := old.n; i < n; i++ {
		sh.dirs[i] = &directory{}
		sh.caches[i] = &translationCache{}
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

// Alloc mints a fresh GID of the given kind homed (and initially owned) at
// locality home.
func (s *Service) Alloc(home int, kind Kind) GID {
	s.checkLoc(home)
	if kind == KindInvalid {
		panic("agas: cannot allocate invalid kind")
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

// Owner returns the best current owner of g known to this node. It prefers,
// in order: the import table (the object lives here), the authoritative
// home directory (when the home locality is hosted here), a forwarding
// pointer (the object lived here once and departed), and finally the home
// locality itself — the parcel layer then routes toward it and the owning
// node completes resolution. It reports an error for unknown names; a
// forwarding-pointer answer is folded into a plain owner (use OwnerGen to
// observe the ErrMoved verdict).
func (s *Service) Owner(g GID) (int, error) {
	owner, _, err := s.Locate(g)
	return owner, err
}

// Locate is OwnerGen with any forwarding verdict already folded into a
// plain next hop — the form routing callers want. Use OwnerGen to
// observe whether resolution crossed a forwarding pointer (ErrMoved).
func (s *Service) Locate(g GID) (int, uint64, error) {
	owner, gen, err := s.OwnerGen(g)
	var mv *MovedError
	if errors.As(err, &mv) {
		return mv.To, mv.Gen, nil
	}
	return owner, gen, err
}

// OwnerGen is Owner with the migration generation of the answer (0 for an
// unversioned route-toward-home guess). When the answer comes from a
// forwarding pointer — the object migrated away from this node — the owner
// and generation are returned alongside a *MovedError wrapping ErrMoved,
// so the parcel layer can re-route the access and hint the "moved"
// verdict back to the stale sender.
func (s *Service) OwnerGen(g GID) (int, uint64, error) {
	if g.IsNil() {
		return 0, 0, fmt.Errorf("agas: resolve of nil GID")
	}
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n {
		return 0, 0, fmt.Errorf("agas: %v homed beyond machine (%d localities)", g, sh.n)
	}
	if e, ok := s.imports.get(g); ok {
		return e.owner, e.gen, nil
	}
	if !s.resident(home) {
		if e, ok := s.forwards.get(g); ok {
			return e.owner, e.gen, &MovedError{GID: g, To: e.owner, Gen: e.gen}
		}
		return home, 0, nil
	}
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

// ResolveCached translates g from the perspective of locality from. It
// prefers the locality's private cache and falls back to OwnerGen, filling
// the cache (forwarding-pointer answers are absorbed: the caller gets the
// next hop as a plain owner). The answer may be stale if the object has
// since migrated; callers discover staleness when the presumed owner
// misses the access, and then Invalidate and retry — the forwarding path
// counted by Forwards. A cache hit — the steady state of every parcel
// send — is one lock-free load of an immutable line.
func (s *Service) ResolveCached(from int, g GID) (int, error) {
	s.checkLoc(from)
	c := s.shards.Load().caches[from]
	if v, ok := c.m.Load(g); ok {
		s.CacheHits.Add(1)
		return v.(*cacheLine).owner, nil
	}
	owner, gen, err := s.Locate(g)
	if err != nil {
		return 0, err
	}
	s.Resolutions.Add(1)
	c.store(g, owner, gen)
	return owner, nil
}

// store publishes a translation, keeping the newest generation when lines
// race: a concurrent writer with a newer verdict must not be overwritten
// by this older answer.
func (c *translationCache) store(g GID, owner int, gen uint64) {
	line := &cacheLine{owner: owner, gen: gen}
	for {
		old, loaded := c.m.LoadOrStore(g, line)
		if !loaded {
			return
		}
		o := old.(*cacheLine)
		if o.gen >= gen {
			return
		}
		if c.m.CompareAndSwap(g, old, line) {
			return
		}
	}
}

// ResolveAuthoritative translates g for locality from directly against
// this node's authoritative knowledge — never the private cache, because
// the answer may back a "moved" verdict taught to a remote sender. The
// consult is counted as a Resolution (it is a directory consult, keeping
// the translation-efficiency ratio comparable with the cached path) and
// warms from's cache in place so subsequent local sends go direct.
func (s *Service) ResolveAuthoritative(from int, g GID) (int, uint64, error) {
	s.checkLoc(from)
	owner, gen, err := s.Locate(g)
	if err != nil {
		return 0, 0, err
	}
	s.Resolutions.Add(1)
	s.shards.Load().caches[from].store(g, owner, gen)
	return owner, gen, nil
}

// Invalidate drops locality from's cached translation for g, forcing the
// next ResolveCached to consult the home directory. It records a forward.
func (s *Service) Invalidate(from int, g GID) {
	s.checkLoc(from)
	s.shards.Load().caches[from].m.Delete(g)
	s.Forwards.Add(1)
}

// Repoint applies a "moved" verdict: every resident locality whose cache
// holds a translation for g older than gen is updated to the new owner in
// place. Lines are never created — caches fill on demand — and a verdict
// older than what a cache already knows is ignored, so racing verdicts
// from interleaved migrations converge on the newest generation.
func (s *Service) Repoint(g GID, owner int, gen uint64) {
	for _, c := range s.shards.Load().caches {
		for {
			old, ok := c.m.Load(g)
			if !ok || old.(*cacheLine).gen >= gen {
				break
			}
			if c.m.CompareAndSwap(g, old, &cacheLine{owner: owner, gen: gen}) {
				break
			}
		}
	}
}

// Migrate atomically moves ownership of g to locality to in its home
// directory, bumping the generation. The home locality must be hosted by
// this node (the directory is authoritative only there); the destination
// may be any locality of the machine, including one hosted elsewhere.
// Caches are deliberately left stale — staleness is repaired by
// forwarding and Repoint verdicts, not coherence.
func (s *Service) Migrate(g GID, to int) error {
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
		return fmt.Errorf("agas: migrate of unknown name %v", g)
	}
	d.entries.Store(g, &entry{owner: to, gen: e.gen + 1})
	return nil
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
// was freed). It is idempotent, and free for names never imported — the
// overwhelmingly common case (every consumed call future is freed) skips
// the copy-on-write publish on a lock-free miss.
func (s *Service) DropImport(g GID) {
	if _, ok := s.imports.get(g); !ok {
		return
	}
	s.imports.mutate(func(m map[GID]entry) {
		delete(m, g)
	})
}

// SetForward leaves a forwarding pointer: g migrated away from this node
// to locality `to` at the given generation. Subsequent resolutions here
// answer with a MovedError naming `to`, so in-flight parcels chase one
// hop instead of detouring through the home directory.
func (s *Service) SetForward(g GID, to int, gen uint64) {
	s.checkLoc(to)
	s.forwards.mutate(func(m map[GID]entry) {
		if e, ok := m[g]; !ok || e.gen < gen {
			m[g] = entry{owner: to, gen: gen}
		}
	})
}

// Forward reports the forwarding pointer for g, if this node left one.
func (s *Service) Forward(g GID) (to int, gen uint64, ok bool) {
	e, ok := s.forwards.get(g)
	return e.owner, e.gen, ok
}

// DropForward removes the forwarding pointer for g (the object came back,
// or was freed machine-wide). It is idempotent; like DropImport, a
// lock-free miss skips the copy-on-write publish.
func (s *Service) DropForward(g GID) {
	if _, ok := s.forwards.get(g); !ok {
		return
	}
	s.forwards.mutate(func(m map[GID]entry) {
		delete(m, g)
	})
}

// Free removes g from its home directory, import table, and forwarding
// table, and is idempotent. Directory entries homed on other nodes are
// left to their owning node.
func (s *Service) Free(g GID) {
	s.DropImport(g)
	s.DropForward(g)
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n || !s.resident(home) {
		return
	}
	// The delete serializes with Migrate/CommitMigration's read-modify-
	// write on the same mutex: otherwise a concurrent migration that
	// loaded the entry before this free could re-publish it afterwards,
	// resurrecting the freed name in the directory.
	d := sh.dirs[home]
	d.mu.Lock()
	d.entries.Delete(g)
	d.mu.Unlock()
}

// Generation reports the migration generation of g (1 when newly
// allocated) from this node's most authoritative source: the home
// directory when hosted here, otherwise the import record of a locally
// hosted object.
func (s *Service) Generation(g GID) (uint64, error) {
	home := int(g.Home)
	sh := s.shards.Load()
	if home >= sh.n {
		return 0, fmt.Errorf("agas: %v homed beyond machine", g)
	}
	if !s.resident(home) {
		if e, ok := s.imports.get(g); ok {
			return e.gen, nil
		}
		return 0, fmt.Errorf("agas: generation of %v only known to its home node", g)
	}
	e, ok := sh.dirs[home].load(g)
	if !ok {
		return 0, fmt.Errorf("agas: unknown name %v", g)
	}
	return e.gen, nil
}

func (s *Service) checkLoc(i int) {
	if n := s.shards.Load().n; i < 0 || i >= n {
		panic(fmt.Sprintf("agas: locality %d out of range [0,%d)", i, n))
	}
}
