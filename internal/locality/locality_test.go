package locality

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
)

func TestPostAndRun(t *testing.T) {
	l := New(0, Config{Workers: 2})
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		l.Post(func() { n.Add(1); wg.Done() })
	}
	wg.Wait()
	l.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks", n.Load())
	}
	if l.TasksRun() != 100 {
		t.Fatalf("TasksRun = %d", l.TasksRun())
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	const workers = 3
	l := New(0, Config{Workers: workers})
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		l.Post(func() {
			defer wg.Done()
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	l.Close()
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d > %d workers", peak.Load(), workers)
	}
}

func TestSuspendReleasesSlot(t *testing.T) {
	// One worker; the first task suspends on a future that only the second
	// task resolves. Without slot release this deadlocks.
	l := New(0, Config{Workers: 1})
	f := lco.NewFuture()
	done := make(chan int, 2)
	l.Post(func() {
		l.Suspend(func() { f.Get() })
		done <- 1
	})
	l.Post(func() {
		f.Set(nil)
		done <- 2
	})
	timeout := time.After(5 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("deadlock: suspension did not release execution slot")
		}
	}
	l.Close()
	if l.Suspensions() != 1 {
		t.Fatalf("suspensions = %d", l.Suspensions())
	}
}

func TestLIFOOrdering(t *testing.T) {
	l := New(0, Config{Workers: 1, Policy: LIFO})
	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	// Block the single worker so the queue builds up.
	l.Post(func() { <-gate; wg.Done() })
	time.Sleep(10 * time.Millisecond)
	for i := 1; i <= 3; i++ {
		i := i
		l.Post(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 3 || order[2] != 1 {
		t.Fatalf("LIFO order = %v, want [3 2 1]", order)
	}
}

func TestFIFOOrdering(t *testing.T) {
	l := New(0, Config{Workers: 1, Policy: FIFO})
	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	l.Post(func() { <-gate; wg.Done() })
	time.Sleep(10 * time.Millisecond)
	for i := 1; i <= 3; i++ {
		i := i
		l.Post(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("FIFO order = %v, want [1 2 3]", order)
	}
}

// TestAdmissionControlSheds is the admission-control contract: a
// saturated locality sheds PostAdmitted with ErrOverloaded (counting
// every shed), runs every admitted task exactly once, and accepts again
// after the backlog drains.
func TestAdmissionControlSheds(t *testing.T) {
	const limit = 8
	l := New(0, Config{Workers: 1, AdmitLimit: limit})
	gate := make(chan struct{})
	var ran atomic.Int32
	task := func() { <-gate; ran.Add(1) }

	// Block the single worker on the gate first, then fill the queue to
	// the limit: with the only worker blocked and nothing draining, the
	// limit-th+1 admission sheds deterministically.
	started := make(chan struct{})
	if err := l.PostAdmitted(0, func() { close(started); <-gate; ran.Add(1) }); err != nil {
		t.Fatalf("first post: %v", err)
	}
	<-started
	admitted := 1
	for i := 0; i < limit; i++ {
		if err := l.PostAdmitted(i, task); err != nil {
			t.Fatalf("post %d before saturation: %v", i, err)
		}
		admitted++
	}
	if err := l.PostAdmitted(0, task); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post at limit: %v, want ErrOverloaded", err)
	}
	if l.Sheds() == 0 {
		t.Fatal("saturated locality recorded no sheds")
	}
	shedsAtSaturation := l.Sheds()

	// Every further admission-checked post sheds while saturated.
	for i := 0; i < 5; i++ {
		if err := l.PostAdmitted(i, func() {}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("post %d under saturation: %v, want ErrOverloaded", i, err)
		}
	}
	if got := l.Sheds(); got != shedsAtSaturation+5 {
		t.Fatalf("Sheds = %d, want %d", got, shedsAtSaturation+5)
	}
	// Plain PostTo bypasses admission even under saturation.
	if err := l.PostTo(0, task); err != nil {
		t.Fatalf("internal post was shed: %v", err)
	}
	admitted++

	// Drain; the locality must accept admission-checked work again.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for l.QueueLen() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue failed to drain: len %d", l.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	if err := l.PostAdmitted(0, func() { close(done) }); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
	<-done
	l.Close()
	if int(ran.Load()) != admitted {
		t.Fatalf("ran %d admitted tasks, want %d (sheds must not lose admitted work)", ran.Load(), admitted)
	}
}

// Admission control off (AdmitLimit 0): PostAdmitted never sheds.
func TestAdmissionControlDisabled(t *testing.T) {
	l := New(0, Config{Workers: 1})
	var wg sync.WaitGroup
	for i := 0; i < 2000; i++ {
		wg.Add(1)
		if err := l.PostAdmitted(i, func() { wg.Done() }); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	wg.Wait()
	l.Close()
	if l.Sheds() != 0 {
		t.Fatalf("Sheds = %d with admission disabled", l.Sheds())
	}
}

// A closed locality reports ErrClosed from PostAdmitted, not a shed.
func TestPostAdmittedAfterClose(t *testing.T) {
	l := New(0, Config{Workers: 1, AdmitLimit: 4})
	l.Close()
	if err := l.PostAdmitted(0, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post after close: %v, want ErrClosed", err)
	}
	if l.Sheds() != 0 {
		t.Fatalf("close counted as shed: %d", l.Sheds())
	}
}

func TestStealingBalancesLoad(t *testing.T) {
	victim := New(0, Config{Workers: 1})
	thief := New(1, Config{Workers: 1, Stealing: true})
	thief.SetVictims([]*Locality{victim})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Jam the victim's single worker, then pile work on its queue.
	victim.Post(func() { <-gate; wg.Done() })
	time.Sleep(5 * time.Millisecond)
	const n = 20
	wg.Add(n)
	for i := 0; i < n; i++ {
		victim.Post(func() {
			time.Sleep(time.Millisecond)
			wg.Done()
		})
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if thief.Stolen() == 0 {
		t.Fatal("thief stole nothing from overloaded victim")
	}
	victim.Close()
	thief.Close()
}

func TestCloseDrainsQueue(t *testing.T) {
	l := New(0, Config{Workers: 2})
	var n atomic.Int32
	for i := 0; i < 200; i++ {
		l.Post(func() { n.Add(1) })
	}
	l.Close()
	if n.Load() != 200 {
		t.Fatalf("close dropped tasks: ran %d/200", n.Load())
	}
}

func TestCloseIdempotent(t *testing.T) {
	l := New(0, Config{Workers: 1})
	l.Close()
	l.Close()
}

func TestPostAfterCloseErrors(t *testing.T) {
	l := New(0, Config{Workers: 1})
	l.Close()
	err := l.Post(func() { t.Error("task ran after close") })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post after close: err = %v, want ErrClosed", err)
	}
	if l.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Dropped())
	}
	if err := l.PostTo(3, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PostTo after close: err = %v, want ErrClosed", err)
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
}

// TestStealingStress floods one locality from many producers while idle
// victims steal, asserting every task runs exactly once.
func TestStealingStress(t *testing.T) {
	const (
		producers = 8
		perProd   = 2000
		thieves   = 3
	)
	victim := New(0, Config{Workers: 2, DequeSize: 64})
	all := []*Locality{victim}
	for i := 0; i < thieves; i++ {
		th := New(1+i, Config{Workers: 2, Stealing: true, DequeSize: 64})
		all = append(all, th)
	}
	for _, l := range all {
		l.SetVictims(all)
	}
	counts := make([]atomic.Int32, producers*perProd)
	var wg sync.WaitGroup
	wg.Add(producers * perProd)
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < perProd; i++ {
				id := p*perProd + i
				if err := victim.Post(func() {
					counts[id].Add(1)
					wg.Done()
				}); err != nil {
					t.Errorf("post %d: %v", id, err)
					wg.Done()
				}
			}
		}()
	}
	pwg.Wait()
	wg.Wait()
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	// Counters settle only once the workers have joined: TasksRun is
	// incremented after the task body, so it can trail wg.Wait.
	for _, l := range all {
		l.Close()
	}
	var stolen, ran uint64
	for _, l := range all {
		stolen += l.Stolen()
		ran += l.TasksRun()
	}
	if ran != producers*perProd {
		t.Fatalf("tasks run = %d, want %d", ran, producers*perProd)
	}
	if stolen == 0 {
		t.Error("no cross-locality steals under an 8-producer flood with 3 idle thieves")
	}
	if victim.QueuePeak() == 0 {
		t.Error("queue peak stayed zero under flood")
	}
}

// TestSiblingStealing checks intra-locality balancing: a hint pinning all
// work to one worker's deque must not leave the siblings idle.
func TestSiblingStealing(t *testing.T) {
	l := New(0, Config{Workers: 4})
	var wg sync.WaitGroup
	const n = 200
	wg.Add(n)
	for i := 0; i < n; i++ {
		l.PostTo(0, func() {
			time.Sleep(200 * time.Microsecond)
			wg.Done()
		})
	}
	wg.Wait()
	if l.StolenLocal() == 0 {
		t.Error("no sibling steals though all posts targeted one deque")
	}
	l.Close()
	if l.TasksRun() != n {
		t.Fatalf("TasksRun = %d, want %d", l.TasksRun(), n)
	}
}

// TestDequeOverflow posts far more than DequeSize while the lone worker is
// jammed; overflow must land in the inject queue and nothing may be lost.
func TestDequeOverflow(t *testing.T) {
	l := New(0, Config{Workers: 1, DequeSize: 8})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	l.Post(func() { <-gate; wg.Done() })
	time.Sleep(5 * time.Millisecond)
	const n = 500
	var ran atomic.Int32
	wg.Add(n)
	for i := 0; i < n; i++ {
		l.Post(func() { ran.Add(1); wg.Done() })
	}
	if peak := l.QueuePeak(); peak < n {
		t.Fatalf("queue peak %d with %d queued", peak, n)
	}
	close(gate)
	wg.Wait()
	l.Close()
	if ran.Load() != n {
		t.Fatalf("ran %d/%d overflow tasks", ran.Load(), n)
	}
}

func TestPostNilPanics(t *testing.T) {
	l := New(0, Config{Workers: 1})
	defer l.Close()
	defer func() {
		if recover() == nil {
			t.Error("nil post did not panic")
		}
	}()
	l.Post(nil)
}

func TestQueueStats(t *testing.T) {
	l := New(0, Config{Workers: 1})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	l.Post(func() { <-gate; wg.Done() })
	time.Sleep(5 * time.Millisecond)
	wg.Add(5)
	for i := 0; i < 5; i++ {
		l.Post(func() { wg.Done() })
	}
	if l.QueueLen() == 0 {
		t.Fatal("queue empty while worker jammed")
	}
	close(gate)
	wg.Wait()
	l.Close()
	if l.QueuePeak() < 5 {
		t.Fatalf("queue peak = %d, want >= 5", l.QueuePeak())
	}
}

func TestIdleFractionReflectsStarvation(t *testing.T) {
	l := New(0, Config{Workers: 1})
	time.Sleep(30 * time.Millisecond) // no work: starved
	if f := l.IdleFraction(); f < 0.5 {
		t.Fatalf("idle fraction %f for empty locality, want high", f)
	}
	l.Close()
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	g := agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}
	s.Put(g, 42)
	res, ok := s.Lookup(g)
	if !ok || res.V.(int) != 42 {
		t.Fatalf("lookup = %v %v", res, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Put(g, 1)
	if s.Remove(g, res); s.Len() != 1 {
		t.Fatal("remove of a replaced entry deleted its successor")
	}
	res, _ = s.Lookup(g)
	s.Remove(g, res)
	if _, ok = s.Lookup(g); ok || s.Len() != 0 {
		t.Fatal("object present after remove")
	}
	s.Remove(g, res) // idempotent
}

func TestStoreNilGIDPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("nil GID put did not panic")
		}
	}()
	s.Put(agas.Nil, 1)
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := agas.GID{Home: uint32(w), Kind: agas.KindData, Seq: uint64(i)}
				s.Put(g, i)
				if res, ok := s.Lookup(g); !ok || res.V.(int) != i {
					t.Errorf("lost write %v", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || LIFO.String() != "lifo" {
		t.Fatal("policy names wrong")
	}
}
