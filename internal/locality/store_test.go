package locality

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
)

// newResident installs one object and returns its entry.
func newResident(t *testing.T) *Resident {
	t.Helper()
	s := NewStore()
	g := agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}
	s.Put(g, 0)
	res, ok := s.Lookup(g)
	if !ok {
		t.Fatal("lookup after put failed")
	}
	return res
}

// Close returns only once every admitted action has exited.
func TestResidentCloseWaitsForExit(t *testing.T) {
	res := newResident(t)
	for i := 0; i < 2; i++ {
		if a := res.Enter(); a != Admitted {
			t.Fatalf("enter %d on an open entry: %v", i, a)
		}
	}
	closed := make(chan struct{})
	go func() {
		res.Close()
		close(closed)
	}()
	res.Exit()
	select {
	case <-closed:
		t.Fatal("close returned with an action still running")
	case <-time.After(20 * time.Millisecond):
	}
	res.Exit()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close never returned after the last exit")
	}
}

// A closed entry admits nothing; Park holds arrivals in order until Open,
// which hands them back once.
func TestResidentEnterRefusedWhileClosed(t *testing.T) {
	res := newResident(t)
	res.Close()
	for i := 0; i < 3; i++ {
		if a := res.Enter(); a != Closed {
			t.Fatalf("enter on a closed entry: %v, want Closed", a)
		}
		if !res.Park(i) {
			t.Fatal("park refused on a closed entry")
		}
	}
	parked := res.Open(false)
	if len(parked) != 3 || parked[0] != 0 || parked[2] != 2 {
		t.Fatalf("open returned %v, want [0 1 2]", parked)
	}
	if a := res.Enter(); a != Admitted {
		t.Fatalf("enter after open: %v", a)
	}
	res.Exit()
	if again := res.Open(false); len(again) != 0 {
		t.Fatalf("a second open returned %v", again)
	}
}

// Park refuses once the entry has opened, so nothing is parked on an
// entry no migration will open again.
func TestResidentParkFailsAfterOpen(t *testing.T) {
	res := newResident(t)
	if res.Park(1) {
		t.Fatal("park accepted on an entry never closed")
	}
	res.Close()
	res.Open(false)
	if res.Park(1) {
		t.Fatal("park accepted after open")
	}
	res.Close()
	res.Open(true)
	if res.Park(1) {
		t.Fatal("park accepted on a gone entry")
	}
}

// An entry opened gone never admits an action again.
func TestResidentGoneNeverAdmits(t *testing.T) {
	res := newResident(t)
	res.Close()
	res.Open(true)
	for i := 0; i < 100; i++ {
		if a := res.Enter(); a != Gone {
			t.Fatalf("enter on a gone entry: %v, want Gone", a)
		}
	}
}

// Enter/Exit storms against repeated Close/Open: no action is admitted
// while the entry is closed, every Close drains, and every parked item
// comes back from exactly one Open.
func TestResidentStormAgainstCloseOpen(t *testing.T) {
	res := newResident(t)
	var running, violations, parkedIn atomic.Int64
	var closed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch res.Enter() {
				case Admitted:
					running.Add(1)
					if closed.Load() {
						violations.Add(1)
					}
					running.Add(-1)
					res.Exit()
				case Closed:
					if res.Park(struct{}{}) {
						parkedIn.Add(1)
					}
				case Gone:
					violations.Add(1)
				}
			}
		}()
	}
	var parkedOut int64
	for round := 0; round < 500; round++ {
		res.Close()
		if n := running.Load(); n != 0 {
			t.Fatalf("round %d: close returned with %d actions running", round, n)
		}
		closed.Store(true)
		runtime.Gosched()
		closed.Store(false)
		parkedOut += int64(len(res.Open(false)))
	}
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d actions admitted on a closed or gone entry", v)
	}
	if in := parkedIn.Load(); in != parkedOut {
		t.Fatalf("%d items parked, %d handed back by open", in, parkedOut)
	}
}
