package locality

import (
	"sync"
	"sync/atomic"

	"repro/internal/agas"
)

// Store is a locality's object store: the local half of the global address
// space. Objects live in exactly one store at a time; migration moves them
// between stores while their GID stays fixed. Each object sits in a
// Resident, which also carries the object's migration fence.
type Store struct {
	mu    sync.RWMutex
	m     map[agas.GID]*Resident
	chunk []Resident // Residents not yet handed out; refilled residentChunk at a time
}

// residentChunk is how many Residents one allocation carves: installing
// an object costs a map insert, not a malloc. A Resident is never reused,
// so a lookup that raced its removal cannot alias a newer object; the
// price is that a removed object's value stays reachable until no
// Resident of its chunk is.
const residentChunk = 64

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{m: make(map[agas.GID]*Resident)}
}

// Put installs v under g in a fresh, open Resident, replacing any previous
// entry.
func (s *Store) Put(g agas.GID, v any) {
	if g.IsNil() {
		panic("locality: store put with nil GID")
	}
	s.mu.Lock()
	if len(s.chunk) == 0 {
		s.chunk = make([]Resident, residentChunk)
	}
	res := &s.chunk[0]
	s.chunk = s.chunk[1:]
	res.V = v
	s.m[g] = res
	s.mu.Unlock()
}

// Lookup returns the Resident holding the object named g, if present.
func (s *Store) Lookup(g agas.GID) (*Resident, bool) {
	s.mu.RLock()
	res, ok := s.m[g]
	s.mu.RUnlock()
	return res, ok
}

// Remove deletes g while it still names res; removing an absent name, or
// one a later Put has replaced, is a no-op.
func (s *Store) Remove(g agas.GID, res *Resident) {
	s.mu.Lock()
	if s.m[g] == res {
		delete(s.m, g)
	}
	s.mu.Unlock()
}

// Len reports the number of resident objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Resident is one object in a store, with its migration fence: a
// migration must observe the object with no action mid-flight, and work
// that arrives while the object is in transit must neither run against it
// nor be lost. An action brackets itself with Enter and Exit, one atomic
// operation each; a migration Closes the entry, which waits for running
// actions to drain and turns later arrivals away to Park, then Opens it
// again, gone if the object left. Only a migration touches the mutex, the
// parked list and the idle channel.
type Resident struct {
	// V is the object. It is set once, before the Resident is published.
	V any

	state  atomic.Uint64 // running actions << stateShift | stateGone | stateClosed
	mu     sync.Mutex
	parked []any
	idle   chan struct{} // non-nil while Close waits for the running count to drain
}

const (
	stateClosed = 1 << iota // a migration is draining the entry
	stateGone               // the object has left this store
	stateShift  = iota
	stateOne    = 1 << stateShift // one running action
)

// Admission is Enter's verdict.
type Admission uint8

const (
	Admitted Admission = iota // the action may run, and must Exit when done
	Closed                    // a migration is draining the entry: Park, or Enter again if Park refuses
	Gone                      // the object has left this store: re-route
)

// Enter admits one action on the object unless the entry is closed or
// gone: one CAS when uncontended.
func (r *Resident) Enter() Admission {
	for {
		s := r.state.Load()
		switch {
		case s&stateGone != 0:
			return Gone
		case s&stateClosed != 0:
			return Closed
		}
		if r.state.CompareAndSwap(s, s+stateOne) {
			return Admitted
		}
	}
}

// Exit ends an action admitted by Enter. The last one out of a closed
// entry wakes the Close waiting for it.
func (r *Resident) Exit() {
	s := r.state.Add(^uint64(stateOne - 1))
	if s>>stateShift != 0 || s&stateClosed == 0 {
		return
	}
	r.mu.Lock()
	// Re-check under the lock: this Exit may belong to an earlier Close
	// that already saw the count at zero, and idle to a later one.
	if r.idle != nil && r.state.Load()>>stateShift == 0 {
		close(r.idle)
		r.idle = nil
	}
	r.mu.Unlock()
}

// Close fences the entry: later Enters report Closed, and Close returns
// once every admitted action has exited. At most one Close may be in
// progress per entry (a migration holds its object's migration lock).
func (r *Resident) Close() {
	r.mu.Lock()
	// The bit is clear (one closer, and Open clears it), so Add sets it.
	if r.state.Add(stateClosed)>>stateShift == 0 {
		r.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	r.idle = ch
	r.mu.Unlock()
	<-ch
}

// Park holds x until the entry opens, and reports false (holding nothing)
// when it is no longer closed.
func (r *Resident) Park(x any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Load()&stateClosed == 0 {
		return false
	}
	r.parked = append(r.parked, x)
	return true
}

// Open lifts a Close, marking the entry gone when the object has left the
// store, and returns what parked meanwhile, in arrival order, for the
// caller to re-route.
func (r *Resident) Open(gone bool) []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Closed and drained, the word holds only stateClosed: no Enter can
	// admit, so no Exit can race this store.
	var s uint64
	if gone {
		s = stateGone
	}
	r.state.Store(s)
	parked := r.parked
	r.parked = nil
	return parked
}
