package parcel

import (
	"bytes"
	"testing"
)

// testTable is a fixed action table, both halves: position = index into
// names.
type testTable []string

// table is what testTable implements, so a test can convert it once.
type table interface {
	EncodeTable
	DecodeTable
}

func (t testTable) IDOf(name string) (uint32, bool) {
	for i, n := range t {
		if n == name {
			return uint32(i), true
		}
	}
	return 0, false
}

func (t testTable) ActionOf(id uint32) (string, uint32, bool) {
	if int(id) >= len(t) {
		return "", NoAID, false
	}
	return t[id], id + 1, true // dispatch ID: position + 1, like the registry
}

func internSample() *Parcel {
	return New(sampleGID(9), "known.a",
		NewArgs().Int64(7).String("payload").Encode(),
		Continuation{Target: sampleGID(1), Action: "known.b"},
		Continuation{Target: sampleGID(2), Action: "unknown.c"},
	)
}

// TestInternedRoundTrip: interned encode/decode preserves every field,
// interning known actions and spelling out unknown ones in one parcel.
func TestInternedRoundTrip(t *testing.T) {
	tbl := testTable{"known.a", "known.b"}
	p := internSample()
	p.Src, p.Hops = 3, 2
	wire := p.EncodeInterned(nil, tbl)
	// The known action names must not appear as strings on the wire.
	if bytes.Contains(wire, []byte("known.a")) || bytes.Contains(wire, []byte("known.b")) {
		t.Fatal("interned encode spelled out a table action")
	}
	if !bytes.Contains(wire, []byte("unknown.c")) {
		t.Fatal("non-table action missing from the wire")
	}
	q, rest, err := DecodePooledInterned(wire, tbl, 0)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing)", err, len(rest))
	}
	if q.ID != p.ID || q.Dest != p.Dest || q.Action != p.Action ||
		q.Src != p.Src || q.Hops != p.Hops || !bytes.Equal(q.Args, p.Args) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", q, p)
	}
	if q.AID != 1 { // "known.a" is table position 0 → dispatch ID 1
		t.Fatalf("decoded AID %d, want 1", q.AID)
	}
	if len(q.Cont) != 2 || q.Cont[0] != p.Cont[0] || q.Cont[1] != p.Cont[1] {
		t.Fatalf("continuations mismatch: %v", q.Cont)
	}
	Release(q)
}

// TestInternedDecodeNeedsTable: an interned reference without a table is
// a decode error, not a panic or a silent misdispatch.
func TestInternedDecodeNeedsTable(t *testing.T) {
	tbl := testTable{"known.a", "known.b"}
	wire := internSample().EncodeInterned(nil, tbl)
	if _, _, err := DecodePooledInterned(wire, nil, 0); err == nil {
		t.Fatal("interned decode without a table succeeded")
	}
	// A table too small for the announced position is likewise an error.
	if _, _, err := DecodePooledInterned(wire, testTable{"known.a"}, 0); err == nil {
		t.Fatal("interned decode past the table succeeded")
	}
}

// TestInternedNilTableStringForm: encoding with no table spells every
// reference out, which is exactly what Encode writes, and decodes with or
// without a table.
func TestInternedNilTableStringForm(t *testing.T) {
	p := internSample()
	wire := p.EncodeInterned(nil, nil)
	if !bytes.Equal(wire, p.Encode(nil)) {
		t.Fatal("Encode and the nil-table encode wrote different bytes")
	}
	for _, tbl := range []table{nil, testTable{"known.a", "known.b"}} {
		q, rest, err := DecodePooledInterned(wire, tbl, 0)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v (%d trailing)", err, len(rest))
		}
		if q.Action != p.Action || q.AID != NoAID || len(q.Cont) != 2 {
			t.Fatalf("string-form roundtrip mismatch: %+v", q)
		}
		Release(q)
	}
}

// TestInternedSteadyStateAllocs: the pooled interned round trip is
// allocation-free once the pools are warm.
func TestInternedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	// Convert to the interface once: a slice-typed table boxes (allocates)
	// at every implicit conversion, which is the test harness's cost, not
	// the codec's — the runtime's tables are a map and a pointer, which
	// convert for free.
	var tbl table = testTable{"known.a", "known.b"}
	args := NewArgs().Int64(7).Encode()
	run := func() {
		p := Acquire(sampleGID(9), "known.a", args, Continuation{Target: sampleGID(1), Action: "known.b"})
		w := GetWire()
		w.B = p.EncodeInterned(w.B, tbl)
		Release(p)
		q, _, err := DecodePooledInterned(w.B, tbl, 0)
		PutWire(w)
		if err != nil {
			t.Fatal(err)
		}
		Release(q)
	}
	run() // warm the pools
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("interned round trip allocates %.1f/op, want 0", allocs)
	}
}
