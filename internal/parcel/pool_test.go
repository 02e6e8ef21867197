package parcel

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestPushContinuationOrder checks that repeated pushes prepend (LIFO) and
// interleave correctly with pops.
func TestPushContinuationOrder(t *testing.T) {
	p := New(sampleGID(1), "act", nil)
	for i := 0; i < 5; i++ {
		p.PushContinuation(Continuation{Target: sampleGID(uint64(i)), Action: fmt.Sprintf("c%d", i)})
	}
	for i := 4; i >= 0; i-- {
		c, ok := p.PopContinuation()
		if !ok || c.Action != fmt.Sprintf("c%d", i) {
			t.Fatalf("pop %d: got %q ok=%v", i, c.Action, ok)
		}
	}
	if _, ok := p.PopContinuation(); ok {
		t.Fatal("pop on empty stack succeeded")
	}
}

// TestPopContinuationKeepsPooledCapacity: popping from the front must not
// give the pooled parcel's continuation capacity away, or every recycle of
// a parcel that carried a continuation regrows the stack.
func TestPopContinuationKeepsPooledCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	// Against a table, as on the runtime's wire: spelled-out names
	// allocate their strings.
	var tbl table = testTable{"known.a", "known.b"}
	wire := New(sampleGID(9), "known.a", nil, Continuation{Target: sampleGID(1), Action: "known.b"}).EncodeInterned(nil, tbl)
	run := func() {
		p, _, err := DecodePooledInterned(wire, tbl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := p.PopContinuation(); !ok || c.Action != "known.b" || len(p.Cont) != 0 {
			t.Fatalf("pop = %+v, %v with %d left", c, ok, len(p.Cont))
		}
		Release(p)
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("decode, pop, release cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestPushContinuationAmortized proves pushing is amortized O(1)
// allocations: pushing N continuations onto one parcel must allocate far
// fewer than N times (only capacity-doubling growth), where the old
// implementation allocated a fresh slice per push.
func TestPushContinuationAmortized(t *testing.T) {
	const pushes = 1024
	allocs := testing.AllocsPerRun(10, func() {
		p := New(sampleGID(1), "act", nil)
		for i := 0; i < pushes; i++ {
			p.PushContinuation(Continuation{Target: sampleGID(uint64(i)), Action: "c"})
		}
	})
	// log2(1024) = 10 doublings; leave generous slack for the start size.
	if allocs > 32 {
		t.Fatalf("%d pushes cost %.0f allocations; want amortized O(1) growth", pushes, allocs)
	}
}

// TestPushContinuationDoesNotMutateCallerSlice: New aliases the caller's
// variadic slice, so the in-place push must copy before its first shift —
// the caller's backing array stays untouched.
func TestPushContinuationDoesNotMutateCallerSlice(t *testing.T) {
	s := make([]Continuation, 1, 4) // spare capacity invites in-place scribbling
	s[0] = Continuation{Target: sampleGID(1), Action: "orig"}
	p := New(sampleGID(9), "act", nil, s...)
	p.PushContinuation(Continuation{Target: sampleGID(2), Action: "pushed"})
	if s[0].Action != "orig" {
		t.Fatalf("caller slice mutated: %q", s[0].Action)
	}
	if len(p.Cont) != 2 || p.Cont[0].Action != "pushed" || p.Cont[1].Action != "orig" {
		t.Fatalf("stack wrong after push: %v", p.Cont)
	}
}

// BenchmarkPushContinuation measures sustained pushes with the stack
// drained by truncation (as the pooled lifecycle reuses capacity): the
// amortized cost is one in-place shift, with allocations only at
// capacity-doubling growth — the old implementation allocated a fresh
// slice on every single push.
func BenchmarkPushContinuation(b *testing.B) {
	p := New(sampleGID(1), "act", nil)
	c := Continuation{Target: sampleGID(2), Action: "c"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.PushContinuation(c)
		if len(p.Cont) == 64 {
			p.Cont = p.Cont[:0]
		}
	}
}

// TestReleaseIgnoresUnpooled: parcels from New are never recycled, so
// application code may keep using them after an (erroneous or defensive)
// Release.
func TestReleaseIgnoresUnpooled(t *testing.T) {
	p := New(sampleGID(1), "act", NewArgs().Int64(7).Encode())
	Release(p)
	if p.Action != "act" || p.Dest != sampleGID(1) {
		t.Fatalf("unpooled parcel mutated by Release: %v", p)
	}
}

// TestDecodePooledOwnsArgs: a pooled decode must copy argument bytes out
// of the source buffer — the transport reuses read buffers the moment the
// handler returns.
func TestDecodePooledOwnsArgs(t *testing.T) {
	src := New(sampleGID(3), "act", NewArgs().Int64(42).String("payload").Encode()).Encode(nil)
	p, rest, err := DecodePooled(src)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing)", err, len(rest))
	}
	want := append([]byte(nil), p.Args...)
	for i := range src {
		src[i] = 0xee // shred the wire buffer, as a transport would reuse it
	}
	if !bytes.Equal(p.Args, want) {
		t.Fatal("pooled parcel aliases the decode source buffer")
	}
	Release(p)
}

// TestPoolDoubleReleasePanics: with debugging on, releasing twice is a
// loud bug, not silent pool corruption.
func TestPoolDoubleReleasePanics(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	p := Acquire(sampleGID(1), "act", nil)
	Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	Release(p)
}

// TestPoolStress hammers the pooled acquire/encode/decode/release cycle
// from many goroutines with poisoning enabled. Run under -race it checks
// the ownership discipline end to end: a recycled parcel or wire buffer
// observed after release shows up as shredded bytes (decode failure or
// poisoned action name) or as a data race.
func TestPoolStress(t *testing.T) {
	SetPoolDebug(true)
	defer SetPoolDebug(false)
	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			args := NewArgs().Uint64(seed).String("stress-payload").Encode()
			for i := 0; i < rounds; i++ {
				p := Acquire(sampleGID(seed), "stress.act", args,
					Continuation{Target: sampleGID(seed + 1), Action: "stress.cont"})
				w := GetWire()
				w.B = p.Encode(w.B)
				Release(p)
				q, rest, err := DecodePooled(w.B)
				PutWire(w)
				if err != nil || len(rest) != 0 {
					t.Errorf("round %d: decode: %v (%d trailing)", i, err, len(rest))
					return
				}
				if q.Action != "stress.act" || q.Dest != sampleGID(seed) {
					t.Errorf("round %d: recycled parcel corrupted: %v", i, q)
					return
				}
				r := NewReader(q.Args)
				if got := r.Uint64(); got != seed || r.Err() != nil {
					t.Errorf("round %d: args corrupted: %d (%v)", i, got, r.Err())
					return
				}
				Release(q)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}
