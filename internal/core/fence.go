package core

import (
	"sync"

	"repro/internal/agas"
	"repro/internal/parcel"
)

// Migration fencing: a migration must observe the object with no action
// mid-flight, and parcels that arrive while the payload is in transit must
// neither execute against a vanished object nor be dropped. The fence
// table tracks, per object, how many actions are currently applied to it;
// closing the fence waits for that count to drain and parks every later
// arrival until the move commits. Parked parcels keep a charged work unit,
// so Wait cannot declare quiescence while any are held.

// fenceShards bounds lock contention on the hot enter/exit path; parcels
// for one object hash to one shard. Per-object tracking costs every
// non-hardware execution one uncontended shard lock plus a map
// insert/delete — measured as lost in the noise of the per-parcel path
// (E10 parcel-local and the parcel-flood benchmarks are unchanged) — and in
// exchange a migration quiesces exactly its own object: a shard- or
// locality-coarse count would stall migrations behind unrelated
// long-running actions.
const fenceShards = 64

// parkedParcel is one arrival held back by a closed fence, remembering the
// locality it was delivered to so the re-route starts from there.
type parkedParcel struct {
	loc int
	p   *parcel.Parcel
}

// objFence is the execution state of one object while any action runs on
// it or a migration is quiescing it.
type objFence struct {
	active    int
	migrating bool
	parked    []parkedParcel
	idle      chan struct{} // non-nil while a migration waits for active to drain
}

type fenceShard struct {
	mu   sync.Mutex
	m    map[agas.GID]*objFence
	free []*objFence // recycled fences: enter/exit churns one per dispatch
}

// get reuses a recycled fence or allocates one; callers hold the shard
// lock.
func (s *fenceShard) get() *objFence {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f
	}
	return &objFence{}
}

// put recycles an idle fence; callers hold the shard lock. The freelist is
// bounded: steady state needs about one fence per concurrently executing
// parcel per shard.
func (s *fenceShard) put(f *objFence) {
	if len(s.free) >= 64 {
		return
	}
	f.active = 0
	f.migrating = false
	f.parked = f.parked[:0]
	f.idle = nil
	s.free = append(s.free, f)
}

// fenceTable is the per-runtime set of object fences. Entries exist only
// while an object has in-flight actions or an in-progress migration, so
// the table stays small regardless of how many objects the node hosts.
type fenceTable struct {
	shards [fenceShards]fenceShard
}

func newFenceTable() *fenceTable {
	t := &fenceTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[agas.GID]*objFence)
	}
	return t
}

func (t *fenceTable) shard(g agas.GID) *fenceShard {
	h := g.Seq ^ uint64(g.Home)<<32
	return &t.shards[h%fenceShards]
}

// enter registers an action execution on g at locality loc. It reports
// false when the fence is closed for migration: the parcel was parked and
// must not execute; the caller charges a work unit for the parked leg.
func (t *fenceTable) enter(g agas.GID, loc int, p *parcel.Parcel) bool {
	s := t.shard(g)
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.m[g]
	if f == nil {
		f = s.get()
		s.m[g] = f
	}
	if f.migrating {
		f.parked = append(f.parked, parkedParcel{loc: loc, p: p})
		return false
	}
	f.active++
	return true
}

// exit ends an action execution registered by enter.
func (t *fenceTable) exit(g agas.GID) {
	s := t.shard(g)
	s.mu.Lock()
	f := s.m[g]
	f.active--
	if f.active == 0 {
		if f.migrating {
			if f.idle != nil {
				close(f.idle)
				f.idle = nil
			}
		} else {
			delete(s.m, g)
			s.put(f)
		}
	}
	s.mu.Unlock()
}

// close fences g for migration: later arrivals park, and the call returns
// once the last in-flight action on g has drained. Per-object migration
// serialization (Runtime.lockMigration) guarantees a single closer per
// object.
func (t *fenceTable) close(g agas.GID) {
	s := t.shard(g)
	s.mu.Lock()
	f := s.m[g]
	if f == nil {
		f = s.get()
		s.m[g] = f
	}
	f.migrating = true
	if f.active == 0 {
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	f.idle = ch
	s.mu.Unlock()
	<-ch
}

// open lifts the fence on g and returns the parcels parked while it was
// closed, in arrival order, for the caller to re-route.
func (t *fenceTable) open(g agas.GID) []parkedParcel {
	s := t.shard(g)
	s.mu.Lock()
	f := s.m[g]
	var parked []parkedParcel
	if f != nil {
		parked = f.parked
		delete(s.m, g)
	}
	s.mu.Unlock()
	return parked
}
