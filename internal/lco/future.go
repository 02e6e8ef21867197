// Package lco implements ParalleX Local Control Objects: the lightweight
// synchronization primitives that replace global barriers. Futures provide
// anonymous producer–consumer coupling, dataflow templates provide
// compile-time value-oriented flow control, depleted threads store the
// state of suspended threads, and metathreads instantiate new threads when
// their dependencies fire. All LCOs are safe for concurrent use and fire
// exactly once unless documented otherwise.
package lco

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ErrAlreadySet is returned when a single-assignment LCO is set twice.
var ErrAlreadySet = errors.New("lco: already set")

// Future is a single-assignment value with blocking and callback-style
// consumers. The zero value is not usable; create with NewFuture.
//
// A future costs one allocation, itself: a blocking Get parks on the
// embedded wait group, the channel Done returns is made only for a caller
// that selects on a still-unresolved future, and the callback slice only
// once OnReady is used.
//
// Its read side takes no lock once it has resolved: Settle publishes ready
// after it has written val and err, and TryGet, Resolved, Done and OnReady
// read that flag first. Only a reader of a future still pending takes mu.
type Future struct {
	mu    sync.Mutex
	wg    sync.WaitGroup // holds one count until resolution; Get waits on it
	done  chan struct{}  // made by Done while unresolved, closed on resolution
	ready atomic.Bool    // set once, under mu, after val and err are written
	val   any
	err   error
	cbs   []func(any, error)
}

// closedDones are the channels Done hands out once a future has resolved,
// all closed. A select locks every channel it names, so a resolved future
// picks one by where it lives (closedDone), and selects on futures made on
// different CPUs lock different channels.
var closedDones = func() (cs [64]chan struct{}) {
	for i := range cs {
		cs[i] = make(chan struct{})
		close(cs[i])
	}
	return cs
}()

// closedDone returns f's closed channel, by a Fibonacci hash of the 8 KB
// page f lives on. Futures one CPU allocates in a row share a page, so a
// caller waiting on the futures it makes keeps to one channel for many
// calls, and a caller on another CPU, allocating from pages of its own,
// keeps to another: the channel's lock rarely changes CPU.
func (f *Future) closedDone() chan struct{} {
	h := uint64(uintptr(unsafe.Pointer(f))>>13) * 0x9e3779b97f4a7c15
	return closedDones[h>>(64-6)]
}

// NewFuture returns an empty future.
func NewFuture() *Future {
	f := &Future{}
	f.wg.Add(1)
	return f
}

// Set delivers the value, waking all waiters and running registered
// callbacks (synchronously, in registration order). Setting twice returns
// ErrAlreadySet.
func (f *Future) Set(v any) error { return f.resolve(v, nil) }

// Fail delivers an error instead of a value.
func (f *Future) Fail(err error) error {
	if err == nil {
		err = errors.New("lco: future failed with nil error")
	}
	return f.resolve(nil, err)
}

func (f *Future) resolve(v any, err error) error {
	cbs, serr := f.Settle(v, err)
	for _, cb := range cbs {
		cb(v, err)
	}
	return serr
}

// Settle resolves the future with v, or fails it with err when err is not
// nil, and wakes every waiter, as Set and Fail do, but hands the
// registered callbacks back instead of running them: the caller runs
// them, in order, with (v, err), wherever it chooses. The runtime settles
// a reply this way on a transport read goroutine, which must not run
// application code. Settling twice returns ErrAlreadySet and no callbacks.
func (f *Future) Settle(v any, err error) ([]func(any, error), error) {
	f.mu.Lock()
	if f.ready.Load() {
		f.mu.Unlock()
		return nil, ErrAlreadySet
	}
	f.val, f.err = v, err
	f.ready.Store(true) // publishes val and err to lock-free readers
	cbs := f.cbs
	f.cbs = nil
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
	f.wg.Done()
	return cbs, nil
}

// Get blocks until the future resolves and returns its value or error.
// This is the "suspend the consumer thread" path; in the runtime the
// blocked goroutine is exactly the paper's depleted thread.
func (f *Future) Get() (any, error) {
	f.wg.Wait()
	return f.val, f.err
}

// TryGet reports the value without blocking; ok is false while unresolved.
func (f *Future) TryGet() (v any, err error, ok bool) {
	if !f.ready.Load() {
		return nil, nil, false
	}
	return f.val, f.err, true
}

// Done returns a channel closed on resolution, for use in select. A
// resolved future returns an already closed channel shared with other
// resolved futures, so only a select on a future still pending makes one.
func (f *Future) Done() <-chan struct{} {
	if f.ready.Load() {
		return f.closedDone()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ready.Load() {
		return f.closedDone()
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// OnReady registers cb to run when the future resolves; if it already has,
// cb runs immediately on the calling goroutine. Otherwise cb runs where
// the future is resolved: by Set or Fail, on that goroutine, which for a
// runtime call answered on the same node is the worker that ran the
// callee (the reply resolves inline, see core.Runtime.SendFrom); by
// Settle, wherever its caller runs the callbacks handed back, which for a
// reply read off the wire is one task on the caller's locality. A
// callback registered after Settle but before that task runs executes at
// once, ahead of the earlier ones. This is the parcel continuation hook:
// the runtime attaches "send result onward" callbacks.
func (f *Future) OnReady(cb func(v any, err error)) {
	if f.ready.Load() {
		cb(f.val, f.err)
		return
	}
	f.mu.Lock()
	if f.ready.Load() {
		v, err := f.val, f.err
		f.mu.Unlock()
		cb(v, err)
		return
	}
	f.cbs = append(f.cbs, cb)
	f.mu.Unlock()
}

// Resolved reports whether the future has been set or failed.
func (f *Future) Resolved() bool { return f.ready.Load() }

// Dataflow is an n-input dataflow template: when every input slot has been
// supplied, fn fires exactly once with the inputs in slot order and its
// result resolves Out. This is the paper's "dataflow synchronization …
// true asynchronous value oriented flow control".
type Dataflow struct {
	mu        sync.Mutex
	slots     []any
	filled    []bool
	remaining int
	fired     bool
	fn        func([]any) (any, error)
	out       *Future
}

// NewDataflow creates a template with n >= 1 inputs.
func NewDataflow(n int, fn func(inputs []any) (any, error)) *Dataflow {
	if n < 1 {
		panic(fmt.Sprintf("lco: dataflow needs at least 1 input, got %d", n))
	}
	if fn == nil {
		panic("lco: dataflow with nil function")
	}
	return &Dataflow{
		slots:     make([]any, n),
		filled:    make([]bool, n),
		remaining: n,
		fn:        fn,
		out:       NewFuture(),
	}
}

// Supply fills input slot i. Supplying a slot twice or out of range is an
// error. The firing happens on the goroutine that supplies the last input.
func (d *Dataflow) Supply(i int, v any) error {
	d.mu.Lock()
	if i < 0 || i >= len(d.slots) {
		d.mu.Unlock()
		return fmt.Errorf("lco: dataflow slot %d out of range [0,%d)", i, len(d.slots))
	}
	if d.filled[i] {
		d.mu.Unlock()
		return fmt.Errorf("lco: dataflow slot %d already supplied", i)
	}
	d.filled[i] = true
	d.slots[i] = v
	d.remaining--
	ready := d.remaining == 0 && !d.fired
	if ready {
		d.fired = true
	}
	inputs := d.slots
	d.mu.Unlock()
	if ready {
		v, err := d.fn(inputs)
		if err != nil {
			d.out.Fail(err)
		} else {
			d.out.Set(v)
		}
	}
	return nil
}

// Out returns the future resolved by the firing.
func (d *Dataflow) Out() *Future { return d.out }

// Pending reports how many inputs remain unsupplied.
func (d *Dataflow) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remaining
}

// Reduce accumulates n contributions with an associative operator and
// resolves Out with the final accumulation. Contributions may arrive from
// any goroutine in any order.
type Reduce struct {
	mu        sync.Mutex
	acc       any
	remaining int
	op        func(acc, v any) any
	out       *Future
}

// NewReduce creates a reduction expecting n >= 1 contributions starting
// from init.
func NewReduce(n int, init any, op func(acc, v any) any) *Reduce {
	if n < 1 {
		panic(fmt.Sprintf("lco: reduce needs at least 1 contribution, got %d", n))
	}
	if op == nil {
		panic("lco: reduce with nil operator")
	}
	return &Reduce{acc: init, remaining: n, op: op, out: NewFuture()}
}

// Contribute folds v into the accumulator; the n-th contribution resolves
// Out. Contributing more than n times returns ErrAlreadySet.
func (r *Reduce) Contribute(v any) error {
	r.mu.Lock()
	if r.remaining == 0 {
		r.mu.Unlock()
		return ErrAlreadySet
	}
	r.acc = r.op(r.acc, v)
	r.remaining--
	done := r.remaining == 0
	acc := r.acc
	r.mu.Unlock()
	if done {
		r.out.Set(acc)
	}
	return nil
}

// Out returns the future resolved with the final accumulation.
func (r *Reduce) Out() *Future { return r.out }
