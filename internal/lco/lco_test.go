package lco

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestFutureSetGet(t *testing.T) {
	f := NewFuture()
	go f.Set(42)
	v, err := f.Get()
	if err != nil || v.(int) != 42 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestFutureSingleAssignment(t *testing.T) {
	f := NewFuture()
	if err := f.Set(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(2); err != ErrAlreadySet {
		t.Fatalf("second set err = %v", err)
	}
	if err := f.Fail(errors.New("x")); err != ErrAlreadySet {
		t.Fatalf("fail after set err = %v", err)
	}
	v, _ := f.Get()
	if v.(int) != 1 {
		t.Fatalf("value overwritten: %v", v)
	}
}

func TestFutureFail(t *testing.T) {
	f := NewFuture()
	want := errors.New("boom")
	f.Fail(want)
	_, err := f.Get()
	if err != want {
		t.Fatalf("err = %v", err)
	}
}

func TestFutureFailNilError(t *testing.T) {
	f := NewFuture()
	f.Fail(nil)
	_, err := f.Get()
	if err == nil {
		t.Fatal("nil error accepted")
	}
}

func TestFutureTryGet(t *testing.T) {
	f := NewFuture()
	if _, _, ok := f.TryGet(); ok {
		t.Fatal("TryGet on empty future succeeded")
	}
	f.Set("v")
	v, err, ok := f.TryGet()
	if !ok || err != nil || v.(string) != "v" {
		t.Fatalf("TryGet = %v %v %v", v, err, ok)
	}
}

func TestFutureOnReadyBeforeSet(t *testing.T) {
	f := NewFuture()
	var got atomic.Value
	f.OnReady(func(v any, err error) { got.Store(v) })
	f.Set(7)
	if got.Load().(int) != 7 {
		t.Fatalf("callback got %v", got.Load())
	}
}

func TestFutureOnReadyAfterSet(t *testing.T) {
	f := NewFuture()
	f.Set(7)
	ran := false
	f.OnReady(func(v any, err error) { ran = v.(int) == 7 })
	if !ran {
		t.Fatal("late OnReady did not run immediately")
	}
}

// TestFutureSettleHandsBackCallbacks: Settle wakes waiters and returns the
// registered callbacks, in order, without running them; a second settle
// is refused and returns none.
func TestFutureSettleHandsBackCallbacks(t *testing.T) {
	f := NewFuture()
	var ran []int
	f.OnReady(func(any, error) { ran = append(ran, 1) })
	f.OnReady(func(any, error) { ran = append(ran, 2) })
	done := f.Done()
	cbs, err := f.Settle(7, nil)
	if err != nil || len(cbs) != 2 || len(ran) != 0 {
		t.Fatalf("Settle: %d callbacks, %v, %d already run; want 2, nil, 0", len(cbs), err, len(ran))
	}
	<-done
	if v, err := f.Get(); v != 7 || err != nil {
		t.Fatalf("Get after Settle: %v, %v", v, err)
	}
	for _, cb := range cbs {
		cb(7, nil)
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("callbacks ran as %v, want [1 2]", ran)
	}
	if cbs, err := f.Settle(8, nil); !errors.Is(err, ErrAlreadySet) || cbs != nil {
		t.Fatalf("second Settle: %d callbacks, %v; want none and ErrAlreadySet", len(cbs), err)
	}
}

func TestFutureConcurrentSetExactlyOnce(t *testing.T) {
	f := NewFuture()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f.Set(i) == nil {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d setters won", wins.Load())
	}
}

func TestFutureManyWaiters(t *testing.T) {
	f := NewFuture()
	var wg sync.WaitGroup
	var sum atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := f.Get()
			sum.Add(int64(v.(int)))
		}()
	}
	f.Set(3)
	wg.Wait()
	if sum.Load() != 96 {
		t.Fatalf("waiter sum = %d", sum.Load())
	}
}

// TestFutureConcurrentGetters races 1,024 consumers against one Set: a
// third block in Get, a third select on Done, a third register OnReady.
// Every one of them must see the single value, and no Done channel may be
// left open.
func TestFutureConcurrentGetters(t *testing.T) {
	const getters = 1024
	f := NewFuture()
	var start, end sync.WaitGroup
	start.Add(getters)
	end.Add(getters)
	var wrong, callbacks atomic.Int32
	check := func(v any, err error) {
		if n, ok := v.(int); !ok || n != 123 || err != nil {
			wrong.Add(1)
		}
	}
	go func() {
		start.Wait()
		if err := f.Set(123); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < getters; i++ {
		go func(i int) {
			start.Wait()
			switch i % 3 {
			case 0:
				defer end.Done()
				check(f.Get())
			case 1:
				defer end.Done()
				<-f.Done()
				v, err, ok := f.TryGet()
				if !ok {
					wrong.Add(1)
				}
				check(v, err)
			case 2:
				f.OnReady(func(v any, err error) {
					check(v, err)
					callbacks.Add(1)
					end.Done()
				})
			}
		}(i)
		start.Done()
	}
	end.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d getters saw a wrong or missing value", n)
	}
	if n := callbacks.Load(); n != getters/3 {
		t.Fatalf("%d callbacks ran, want %d", n, getters/3)
	}
	if !f.Resolved() {
		t.Fatal("future not resolved after every getter returned")
	}
}

// TestFutureAllocatesOnlyItself pins the future's cost: NewFuture, Set and
// Get allocate the future and nothing else, and Done on a resolved future
// hands out the shared closed channel.
func TestFutureAllocatesOnlyItself(t *testing.T) {
	var sink *Future
	if n := testing.AllocsPerRun(1000, func() {
		f := NewFuture()
		f.Set(nil)
		f.Get()
		sink = f
	}); n != 1 {
		t.Fatalf("NewFuture/Set/Get allocates %.1f/op, want 1", n)
	}
	_ = sink

	f := NewFuture()
	f.Set(nil)
	if n := testing.AllocsPerRun(1000, func() { <-f.Done() }); n != 0 {
		t.Fatalf("Done on a resolved future allocates %.1f/op, want 0", n)
	}
}

// TestFutureDoneBeforeSet: a channel taken while the future is pending is
// closed by the resolution.
func TestFutureDoneBeforeSet(t *testing.T) {
	f := NewFuture()
	done := f.Done()
	select {
	case <-done:
		t.Fatal("Done closed before the future resolved")
	default:
	}
	if f.Done() != done {
		t.Fatal("a pending future made a second Done channel")
	}
	f.Fail(nil)
	<-done
	if _, err := f.Get(); err == nil {
		t.Fatal("failed future returned no error")
	}
}

// BenchmarkFutureAvailable is a future's whole life: make, set, get.
func BenchmarkFutureAvailable(b *testing.B) {
	b.ReportAllocs()
	futures := make([]*Future, b.N)
	for i := range futures {
		futures[i] = NewFuture()
	}
	b.ResetTimer()
	for _, f := range futures {
		f.Set(nil)
		f.Get()
	}
}

// BenchmarkFutureGet reads a resolved future.
func BenchmarkFutureGet(b *testing.B) {
	b.ReportAllocs()
	f := NewFuture()
	f.Set(nil)
	for i := 0; i < b.N; i++ {
		f.Get()
	}
}

// BenchmarkFutureReady polls a resolved future, through Resolved and
// through a select on Done.
func BenchmarkFutureReady(b *testing.B) {
	b.ReportAllocs()
	f := NewFuture()
	f.Set(nil)
	for i := 0; i < b.N; i++ {
		if !f.Resolved() {
			b.Fatal("unresolved")
		}
		select {
		case <-f.Done():
		default:
			b.Fatal("Done not closed")
		}
	}
}

func TestDataflowFiresOnceWithAllInputs(t *testing.T) {
	d := NewDataflow(3, func(in []any) (any, error) {
		return in[0].(int) + in[1].(int) + in[2].(int), nil
	})
	d.Supply(2, 30)
	if d.Out().Resolved() {
		t.Fatal("fired early")
	}
	d.Supply(0, 1)
	if d.Pending() != 1 {
		t.Fatalf("pending = %d", d.Pending())
	}
	d.Supply(1, 200)
	v, err := d.Out().Get()
	if err != nil || v.(int) != 231 {
		t.Fatalf("out = %v, %v", v, err)
	}
}

func TestDataflowRejectsDuplicateSlot(t *testing.T) {
	d := NewDataflow(2, func(in []any) (any, error) { return nil, nil })
	d.Supply(0, 1)
	if err := d.Supply(0, 2); err == nil {
		t.Fatal("duplicate supply succeeded")
	}
	if err := d.Supply(5, 1); err == nil {
		t.Fatal("out-of-range supply succeeded")
	}
}

func TestDataflowPropagatesError(t *testing.T) {
	want := errors.New("fn failed")
	d := NewDataflow(1, func(in []any) (any, error) { return nil, want })
	d.Supply(0, nil)
	_, err := d.Out().Get()
	if err != want {
		t.Fatalf("err = %v", err)
	}
}

// Property: for any permutation of supply order, a dataflow fires exactly
// once with all inputs placed correctly.
func TestPropertyDataflowOrderIndependent(t *testing.T) {
	f := func(perm []int, n8 uint8) bool {
		n := int(n8%6) + 1
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Fisher-Yates using perm values as entropy.
		for i := n - 1; i > 0; i-- {
			j := 0
			if len(perm) > 0 {
				j = abs(perm[i%len(perm)]) % (i + 1)
			}
			order[i], order[j] = order[j], order[i]
		}
		var fires atomic.Int32
		d := NewDataflow(n, func(in []any) (any, error) {
			fires.Add(1)
			for k, v := range in {
				if v.(int) != k*10 {
					return nil, errors.New("misplaced input")
				}
			}
			return "ok", nil
		})
		for _, slot := range order {
			if err := d.Supply(slot, slot*10); err != nil {
				return false
			}
		}
		v, err := d.Out().Get()
		return err == nil && v.(string) == "ok" && fires.Load() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestReduceAccumulates(t *testing.T) {
	r := NewReduce(4, 0, func(acc, v any) any { return acc.(int) + v.(int) })
	for i := 1; i <= 4; i++ {
		if err := r.Contribute(i); err != nil {
			t.Fatal(err)
		}
	}
	v, err := r.Out().Get()
	if err != nil || v.(int) != 10 {
		t.Fatalf("reduce = %v, %v", v, err)
	}
	if err := r.Contribute(9); err != ErrAlreadySet {
		t.Fatalf("extra contribution err = %v", err)
	}
}

func TestReduceConcurrent(t *testing.T) {
	const n = 100
	r := NewReduce(n, int64(0), func(acc, v any) any { return acc.(int64) + v.(int64) })
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		i := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Contribute(i)
		}()
	}
	wg.Wait()
	v, _ := r.Out().Get()
	if v.(int64) != n*(n+1)/2 {
		t.Fatalf("sum = %v", v)
	}
}

func TestAndGate(t *testing.T) {
	g := NewAndGate(3)
	fired := false
	g.OnFire(func() { fired = true })
	g.Signal()
	g.Signal()
	if fired {
		t.Fatal("fired early")
	}
	g.Signal()
	if !fired {
		t.Fatal("did not fire")
	}
	g.Signal() // extra signals ignored
	g.Wait()
	ranLate := false
	g.OnFire(func() { ranLate = true })
	if !ranLate {
		t.Fatal("late OnFire did not run")
	}
}

func TestAndGateConcurrent(t *testing.T) {
	g := NewAndGate(64)
	var fires atomic.Int32
	g.OnFire(func() { fires.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); g.Signal() }()
	}
	wg.Wait()
	g.Wait()
	if fires.Load() != 1 {
		t.Fatalf("fired %d times", fires.Load())
	}
}

func TestOrGateFirstWins(t *testing.T) {
	g := NewOrGate()
	if !g.Signal(2, "fast") {
		t.Fatal("first signal lost")
	}
	if g.Signal(5, "slow") {
		t.Fatal("second signal won")
	}
	w, v := g.Wait()
	if w != 2 || v.(string) != "fast" {
		t.Fatalf("winner = %d %v", w, v)
	}
}

func TestOrGateConcurrentSingleWinner(t *testing.T) {
	g := NewOrGate()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g.Signal(i, i) {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d winners", wins.Load())
	}
}

func TestSemaphore(t *testing.T) {
	s := NewSemaphore(2)
	s.Acquire()
	s.Acquire()
	if s.TryAcquire() {
		t.Fatal("third acquire succeeded")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("acquire after release failed")
	}
	if s.Available() != 0 {
		t.Fatalf("available = %d", s.Available())
	}
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	s := NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	s.Release()
}

func TestSemaphoreAsMutualExclusion(t *testing.T) {
	s := NewSemaphore(1)
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.Acquire()
				counter++
				s.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter = %d (race)", counter)
	}
}

func TestGateOpenClose(t *testing.T) {
	g := NewGate(false)
	if g.IsOpen() {
		t.Fatal("new closed gate is open")
	}
	passed := make(chan struct{})
	go func() {
		g.Pass()
		close(passed)
	}()
	select {
	case <-passed:
		t.Fatal("passed closed gate")
	case <-time.After(10 * time.Millisecond):
	}
	g.Open()
	<-passed
	g.Close()
	if g.IsOpen() {
		t.Fatal("gate still open after Close")
	}
	g.Open()
	g.Open() // idempotent
	g.Pass() // immediate
}

func TestBarrierPhases(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var phase [n]int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < 5; p++ {
				phase[i] = p
				b.Arrive()
				// After the barrier all participants must be in phase p.
				for j := 0; j < n; j++ {
					if phase[j] < p {
						t.Errorf("participant %d at phase %d during phase %d", j, phase[j], p)
						return
					}
				}
				b.Arrive()
			}
		}()
	}
	wg.Wait()
	if b.Generation() != 10 {
		t.Fatalf("generations = %d, want 10", b.Generation())
	}
	if b.Waits() != n*10 {
		t.Fatalf("waits = %d", b.Waits())
	}
}

func TestDepletedThreadResumesOnce(t *testing.T) {
	var resumed atomic.Int32
	var got atomic.Value
	sched := func(fn func()) { fn() }
	d := NewDepletedThread(sched, func(v any) {
		resumed.Add(1)
		got.Store(v)
	})
	if d.Fired() {
		t.Fatal("fired at birth")
	}
	if !d.Trigger("value") {
		t.Fatal("first trigger rejected")
	}
	if d.Trigger("other") {
		t.Fatal("second trigger accepted")
	}
	if resumed.Load() != 1 || got.Load().(string) != "value" {
		t.Fatalf("resumed %d with %v", resumed.Load(), got.Load())
	}
}

func TestDepletedThreadConcurrentTrigger(t *testing.T) {
	var resumed atomic.Int32
	d := NewDepletedThread(func(fn func()) { go fn() }, func(v any) { resumed.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); d.Trigger(nil) }()
	}
	wg.Wait()
	time.Sleep(10 * time.Millisecond)
	if resumed.Load() != 1 {
		t.Fatalf("resumed %d times", resumed.Load())
	}
}

func TestMetathreadSpawnsAfterDeps(t *testing.T) {
	var spawned atomic.Int32
	m := NewMetathread(3, func(fn func()) { fn() }, func() { spawned.Add(1) })
	m.Signal()
	m.Signal()
	if spawned.Load() != 0 {
		t.Fatal("spawned early")
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d", m.Pending())
	}
	m.Signal()
	if spawned.Load() != 1 {
		t.Fatalf("spawned %d times", spawned.Load())
	}
	m.Signal() // ignored
	if spawned.Load() != 1 {
		t.Fatalf("extra signal spawned again")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("dataflow n=0", func() { NewDataflow(0, func([]any) (any, error) { return nil, nil }) })
	mustPanic("dataflow nil fn", func() { NewDataflow(1, nil) })
	mustPanic("reduce n=0", func() { NewReduce(0, nil, func(a, b any) any { return nil }) })
	mustPanic("reduce nil op", func() { NewReduce(1, nil, nil) })
	mustPanic("andgate n=0", func() { NewAndGate(0) })
	mustPanic("sem n=0", func() { NewSemaphore(0) })
	mustPanic("barrier n=0", func() { NewBarrier(0) })
	mustPanic("depleted nil sched", func() { NewDepletedThread(nil, func(any) {}) })
	mustPanic("depleted nil resume", func() { NewDepletedThread(func(func()) {}, nil) })
	mustPanic("meta nil sched", func() { NewMetathread(1, nil, func() {}) })
	mustPanic("meta nil body", func() { NewMetathread(1, func(func()) {}, nil) })
}
