package parcel

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/agas"
)

func sampleGID(n uint64) agas.GID {
	return agas.GID{Home: uint32(n % 16), Kind: agas.KindData, Seq: n}
}

func TestParcelRoundTrip(t *testing.T) {
	p := New(sampleGID(1), "compute",
		NewArgs().Int64(42).String("hello").Encode(),
		Continuation{Target: sampleGID(2), Action: "set"},
		Continuation{Target: sampleGID(3), Action: "trigger"},
	)
	p.Src = 5
	p.Hops = 2
	buf := p.Encode(nil)
	got, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if got.ID != p.ID || got.Dest != p.Dest || got.Action != p.Action ||
		got.Src != p.Src || got.Hops != p.Hops {
		t.Fatalf("header mismatch: %+v vs %+v", got, p)
	}
	if !bytes.Equal(got.Args, p.Args) {
		t.Fatal("args mismatch")
	}
	if len(got.Cont) != 2 || got.Cont[0] != p.Cont[0] || got.Cont[1] != p.Cont[1] {
		t.Fatalf("continuations mismatch: %v", got.Cont)
	}
}

func TestParcelEmptyFields(t *testing.T) {
	p := New(sampleGID(9), "noop", nil)
	buf := p.Encode(nil)
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Args != nil {
		t.Fatalf("expected nil args, got %v", got.Args)
	}
	if len(got.Cont) != 0 {
		t.Fatalf("expected no continuations")
	}
}

func TestPropertyParcelRoundTrip(t *testing.T) {
	f := func(id uint64, action string, args []byte, nCont uint8, src uint16, hops uint8) bool {
		if len(action) > 1000 {
			action = action[:1000]
		}
		p := &Parcel{
			ID: id, Dest: sampleGID(id), Action: action, Args: args,
			Src: int(src), Hops: int(hops),
		}
		for i := 0; i < int(nCont%5); i++ {
			p.Cont = append(p.Cont, Continuation{Target: sampleGID(uint64(i)), Action: "a"})
		}
		buf := p.Encode(nil)
		got, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.ID != p.ID || got.Action != p.Action || got.Src != p.Src || got.Hops != p.Hops {
			return false
		}
		if !bytes.Equal(got.Args, p.Args) {
			return false
		}
		if len(got.Cont) != len(p.Cont) {
			return false
		}
		for i := range p.Cont {
			if got.Cont[i] != p.Cont[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := New(sampleGID(1), "act", NewArgs().Int64(1).Encode(),
		Continuation{Target: sampleGID(2), Action: "k"})
	buf := p.Encode(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := Decode(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestDecodeTrailingData(t *testing.T) {
	p := New(sampleGID(1), "act", nil)
	buf := p.Encode(nil)
	buf = append(buf, 0xAA, 0xBB)
	_, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("rest = %d bytes, want 2", len(rest))
	}
}

func TestContinuationStack(t *testing.T) {
	p := New(sampleGID(1), "act", nil, Continuation{Target: sampleGID(2), Action: "b"})
	p.PushContinuation(Continuation{Target: sampleGID(3), Action: "a"})
	c, ok := p.PopContinuation()
	if !ok || c.Action != "a" {
		t.Fatalf("first pop = %v %v", c, ok)
	}
	c, ok = p.PopContinuation()
	if !ok || c.Action != "b" {
		t.Fatalf("second pop = %v %v", c, ok)
	}
	if _, ok = p.PopContinuation(); ok {
		t.Fatal("pop of empty stack succeeded")
	}
}

func TestNextIDUnique(t *testing.T) {
	a, b := NextID(), NextID()
	if a == b {
		t.Fatal("duplicate parcel IDs")
	}
}

func TestArgsAllTypes(t *testing.T) {
	g := sampleGID(77)
	rec := NewArgs().
		Int64(-7).
		Uint64(1 << 60).
		Float64(math.Pi).
		Bool(true).
		String("parallex").
		Bytes([]byte{1, 2, 3}).
		GID(g).
		Float64s([]float64{1.5, -2.5}).
		Int64s([]int64{-1, 0, 1}).
		Encode()
	r := NewReader(rec)
	if v := r.Int64(); v != -7 {
		t.Fatalf("int64 = %d", v)
	}
	if v := r.Uint64(); v != 1<<60 {
		t.Fatalf("uint64 = %d", v)
	}
	if v := r.Float64(); v != math.Pi {
		t.Fatalf("float64 = %v", v)
	}
	if !r.Bool() {
		t.Fatal("bool = false")
	}
	if v := r.String(); v != "parallex" {
		t.Fatalf("string = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", v)
	}
	if v := r.GID(); v != g {
		t.Fatalf("gid = %v", v)
	}
	if v := r.Float64s(); len(v) != 2 || v[0] != 1.5 || v[1] != -2.5 {
		t.Fatalf("float64s = %v", v)
	}
	if v := r.Int64s(); len(v) != 3 || v[0] != -1 || v[2] != 1 {
		t.Fatalf("int64s = %v", v)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
}

func TestArgsTypeMismatchDetected(t *testing.T) {
	rec := NewArgs().Int64(1).Encode()
	r := NewReader(rec)
	r.Float64()
	if r.Err() == nil {
		t.Fatal("type mismatch not detected")
	}
}

// TestReaderNumber: Number reads either numeric field as what it is and
// flags any other field, or a truncated one.
func TestReaderNumber(t *testing.T) {
	r := NewReader(NewArgs().Int64(-7).Float64(2.5).String("x").Encode())
	if i, f, isFloat := r.Number(); i != -7 || f != 0 || isFloat {
		t.Fatalf("Number() on an int64 = %v, %v, %v", i, f, isFloat)
	}
	if i, f, isFloat := r.Number(); i != 0 || f != 2.5 || !isFloat {
		t.Fatalf("Number() on a float64 = %v, %v, %v", i, f, isFloat)
	}
	if r.Number(); r.Err() == nil {
		t.Fatal("Number() on a string set no error")
	}
	rec := NewArgs().Float64(1).Encode()
	r = NewReader(rec[:len(rec)-1])
	if r.Number(); r.Err() == nil {
		t.Fatal("Number() on a truncated float64 set no error")
	}
}

func TestArgsExhaustionDetected(t *testing.T) {
	rec := NewArgs().Int64(1).Encode()
	r := NewReader(rec)
	r.Int64()
	r.Int64()
	if r.Err() == nil {
		t.Fatal("exhaustion not detected")
	}
}

func TestArgsErrorsSticky(t *testing.T) {
	rec := NewArgs().Int64(1).Int64(2).Encode()
	r := NewReader(rec)
	r.Float64() // mismatch; error set
	first := r.Err()
	r.Int64() // would succeed, but error is sticky
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestPropertyArgsRoundTrip(t *testing.T) {
	f := func(i int64, u uint64, fl float64, b bool, s string, by []byte, fs []float64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		for k := range fs {
			if math.IsNaN(fs[k]) {
				fs[k] = 0
			}
		}
		rec := NewArgs().Int64(i).Uint64(u).Float64(fl).Bool(b).String(s).Bytes(by).Float64s(fs).Encode()
		r := NewReader(rec)
		if r.Int64() != i || r.Uint64() != u || r.Float64() != fl || r.Bool() != b || r.String() != s {
			return false
		}
		gb := r.Bytes()
		if !bytes.Equal(gb, by) && !(len(gb) == 0 && len(by) == 0) {
			return false
		}
		gf := r.Float64s()
		if len(gf) != len(fs) {
			return false
		}
		for k := range fs {
			if gf[k] != fs[k] {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParcelString(t *testing.T) {
	p := New(sampleGID(4), "go", nil)
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: Decode never panics and never succeeds with garbage lengths on
// arbitrary byte strings — malformed input must return an error or a
// structurally valid parcel.
func TestPropertyDecodeRobustOnRandomBytes(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Decode panicked on %d bytes", len(raw))
			}
		}()
		p, rest, err := Decode(raw)
		if err != nil {
			return true
		}
		// A successful decode must account for all consumed bytes and
		// carry internally consistent fields.
		return p != nil && len(rest) <= len(raw) && len(p.Args) <= len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeAny never panics on arbitrary bytes.
func TestPropertyDecodeAnyRobust(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("DecodeAny panicked")
			}
		}()
		DecodeAny(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParcelIDsUnique: eight goroutines mint IDs on every shard, through
// AcquireOn and through NextID, at once; no ID repeats, none is zero, and
// each carries its shard in its low bits.
func TestParcelIDsUnique(t *testing.T) {
	const goroutines, perShard = 8, 500
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				for s := 0; s < Shards; s++ {
					p := AcquireOn(s, sampleGID(1), "id", nil)
					if int(p.Shard) != s || int(p.ID&(Shards-1)) != s {
						t.Errorf("AcquireOn(%d): shard %d, ID %#x", s, p.Shard, p.ID)
					}
					ids[g] = append(ids[g], p.ID)
					Release(p)
				}
				ids[g] = append(ids[g], NextID())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, list := range ids {
		for _, id := range list {
			if id == 0 {
				t.Fatal("zero parcel ID")
			}
			if seen[id] {
				t.Fatalf("duplicate parcel ID %#x", id)
			}
			seen[id] = true
		}
	}
	if want := goroutines * perShard * (Shards + 1); len(seen) != want {
		t.Fatalf("%d distinct IDs, want %d", len(seen), want)
	}
}

// TestAcquireNextCarriesTheChain: a continuation's parcel takes its
// parent's ID, shard and trace context, and mints nothing.
func TestAcquireNextCarriesTheChain(t *testing.T) {
	parent := AcquireOn(5, sampleGID(1), "parent", nil)
	parent.Trace = TraceCtx{ID: 9, Flags: TraceSampled}
	next := NextID()
	p, err := AcquireValue(parent, sampleGID(2), "set", int64(7), Continuation{Action: "more"})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != parent.ID || p.Shard != 5 || p.Trace != parent.Trace {
		t.Fatalf("continuation ID %#x shard %d trace %+v; want %#x, 5, %+v", p.ID, p.Shard, p.Trace, parent.ID, parent.Trace)
	}
	if len(p.Cont) != 1 || p.Cont[0].Action != "more" {
		t.Fatalf("continuation stack %v", p.Cont)
	}
	if after := NextID(); after != next+1<<shardBits {
		t.Fatalf("AcquireValue minted an ID: shard 0 went %#x -> %#x", next, after)
	}
	Release(p)
	Release(parent)
}
