package parcel

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/agas"
)

// fuzzSeeds are well-formed parcels spanning the wire format's features,
// used both as the fuzz corpus and for round-trip checks.
func fuzzSeeds() []*Parcel {
	return []*Parcel{
		New(agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, "nop", nil),
		New(agas.GID{Home: 3, Kind: agas.KindLCO, Seq: 42}, "px.lco.set",
			NewArgs().Int64(7).String("payload").Encode()),
		New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 9}, "chain",
			[]byte{0xde, 0xad, 0xbe, 0xef},
			Continuation{Target: agas.GID{Home: 2, Kind: agas.KindLCO, Seq: 10}, Action: "relay"},
			Continuation{Target: agas.GID{Home: 0, Kind: agas.KindLCO, Seq: 11}, Action: "px.lco.set"}),
		{ID: 123, Dest: agas.GID{Home: 5, Kind: agas.KindHardware, Seq: ^uint64(0)},
			Action: "hw.ping", Src: 4, Hops: 3},
		// Boundary shapes: args big enough to dominate the frame, a
		// continuation stack deeper than a call's one reply, and an
		// empty-args parcel (Args must come back nil, not empty). Seeds
		// stay small: the fuzzer minimizes every new interesting input
		// for up to a minute, and inputs bred from a 4 KB or larger seed
		// took whole 30 s runs to minimize. The wire-limit stack is
		// checked by TestEncodeEnforcesWireLimits instead.
		New(agas.GID{Home: 2, Kind: agas.KindData, Seq: 77}, "bulk",
			bytes.Repeat([]byte{0xa5}, 256)),
		contParcel(3),
		New(agas.GID{Home: 6, Kind: agas.KindProcess, Seq: 8}, "spawn", nil,
			Continuation{Target: agas.GID{Home: 6, Kind: agas.KindLCO, Seq: 9}, Action: "join"}),
	}
}

// contParcel builds a parcel with a continuation stack n deep, every
// entry distinct.
func contParcel(n int) *Parcel {
	p := New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 2}, "fanout", []byte{1})
	for i := 0; i < n; i++ {
		p.Cont = append(p.Cont, Continuation{
			Target: agas.GID{Home: uint32(i), Kind: agas.KindLCO, Seq: uint64(i)},
			Action: "collect",
		})
	}
	return p
}

// FuzzParcelDecode feeds the decoder arbitrary bytes with no table, the
// form Encode writes and a node sends before its peer's hello: it must
// never panic, and any input it accepts must re-encode and re-decode to
// the same parcel (the codec consumes untrusted bytes from sockets). A
// table-position reference must be rejected here, since there is no
// table to resolve it against.
func FuzzParcelDecode(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p.Encode(nil))
		// The base encoding followed by the capability-gated trace trailer:
		// decoders must hand the trailer back as the remainder, untouched.
		f.Add(TraceCtx{ID: 0xabcd, Span: 0x1234, Flags: TraceSampled}.Append(p.Encode(nil)))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, nil) })
}

// FuzzParcelDecodeInterned is FuzzParcelDecode against a small table, so
// action references may be table positions as well as spelled-out names.
func FuzzParcelDecodeInterned(f *testing.F) {
	tbl := testTable{"nop", "px.lco.set", "relay"}
	for _, p := range fuzzSeeds() {
		f.Add(p.EncodeInterned(nil, tbl))
		f.Add(p.EncodeInterned(nil, nil))
		f.Add(TraceCtx{ID: 1, Span: 2, Flags: TraceSampled}.Append(p.EncodeInterned(nil, tbl)))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data, tbl) })
}

// checkDecode is the property both fuzz targets hold data to, decoding
// against tbl (nil for no table).
func checkDecode(t *testing.T, data []byte, tbl table) {
	p, rest, err := DecodePooledInterned(data, tbl, 0)
	if err != nil {
		return
	}
	defer Release(p)
	if len(rest) > len(data) {
		t.Fatalf("remainder grew: %d bytes from %d input", len(rest), len(data))
	}
	if p.Trace != (TraceCtx{}) {
		t.Fatalf("base decode populated the trace context: %+v", p.Trace)
	}
	re := p.EncodeInterned(nil, tbl)
	q, tail, err := DecodePooledInterned(re, tbl, 0)
	if err != nil {
		t.Fatalf("re-decode of accepted parcel failed: %v", err)
	}
	defer Release(q)
	if len(tail) != 0 {
		t.Fatalf("re-decode left %d trailing bytes", len(tail))
	}
	if !parcelEqual(p, q) {
		t.Fatalf("round trip mismatch:\n first %+v\nsecond %+v", p, q)
	}
	if len(rest) == TraceWireSize {
		// A trailer-sized remainder must parse and round-trip through
		// Append exactly (the receive path in core depends on this).
		tc, tcRest, terr := DecodeTrace(rest)
		if terr != nil || len(tcRest) != 0 {
			t.Fatalf("trailer decode: %v, %d left", terr, len(tcRest))
		}
		combined := tc.Append(p.EncodeInterned(nil, tbl))
		q2, rest2, err := DecodePooledInterned(combined, tbl, 0)
		if err != nil {
			t.Fatalf("combined re-decode: %v", err)
		}
		defer Release(q2)
		tc2, _, terr := DecodeTrace(rest2)
		if terr != nil || tc2 != tc || !parcelEqual(p, q2) {
			t.Fatalf("combined round trip: %+v vs %+v (%v)", tc, tc2, terr)
		}
	}
}

func TestParcelEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range fuzzSeeds() {
		wire := p.Encode(nil)
		q, rest, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode %s: %v", p, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %s left %d bytes", p, len(rest))
		}
		if !parcelEqual(p, q) {
			t.Fatalf("round trip mismatch:\nsent %+v\ngot  %+v", p, q)
		}
	}
}

func TestEncodeEnforcesWireLimits(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, MaxInternString+1))
	mustPanic(t, "oversized action", func() {
		(&Parcel{Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, Action: long}).Encode(nil)
	})
	mustPanic(t, "oversized continuation action", func() {
		p := &Parcel{Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, Action: "a",
			Cont: []Continuation{{Action: long}}}
		p.Encode(nil)
	})
	mustPanic(t, "oversized continuation stack", func() {
		p := &Parcel{Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1}, Action: "a"}
		p.Cont = make([]Continuation, MaxContinuations+1)
		p.Encode(nil)
	})
	// At the limit, encoding succeeds and survives a round trip.
	p := &Parcel{ID: 1, Dest: agas.GID{Home: 0, Kind: agas.KindData, Seq: 1},
		Action: string(bytes.Repeat([]byte{'b'}, MaxInternString))}
	q, _, err := Decode(p.Encode(nil))
	if err != nil || q.Action != p.Action {
		t.Fatalf("limit-sized action did not round trip: %v", err)
	}
	deep := contParcel(MaxContinuations)
	if q, _, err = Decode(deep.Encode(nil)); err != nil || !parcelEqual(q, deep) {
		t.Fatalf("limit-deep continuation stack did not round trip: %v", err)
	}
}

// TestEncodeGolden pins Encode's bytes for a parcel with every field set.
// A spelled-out name keeps the bytes it has always had, so a probe that
// times Encode and DecodePooled measures the same bytes across versions.
func TestEncodeGolden(t *testing.T) {
	const golden = "0807060504030201" + // id
		"0300000003000000cdab000000000000" + // dest
		"0800" + "6170702e66726f62" + // "app.frob"
		"03000000" + "010203" + // args
		"0100" + "0100000003000000" + "0900000000000000" + // one continuation: target
		"0a00" + "70782e6c636f2e736574" + // "px.lco.set"
		"02000000" + "01000000" // src, hops
	p := &Parcel{ID: 0x0102030405060708, Dest: agas.GID{Home: 3, Kind: agas.KindLCO, Seq: 0xABCD},
		Action: "app.frob", Args: []byte{1, 2, 3},
		Cont: []Continuation{{Target: agas.GID{Home: 1, Kind: agas.KindLCO, Seq: 9}, Action: "px.lco.set"}},
		Src:  2, Hops: 1}
	if got := hex.EncodeToString(p.Encode(nil)); got != golden {
		t.Fatalf("Encode wrote\n%s\nwant\n%s", got, golden)
	}
	wire, _ := hex.DecodeString(golden)
	q, rest, err := DecodePooled(wire)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodePooled: %v (%d trailing)", err, len(rest))
	}
	if !parcelEqual(p, q) || q.AID != NoAID {
		t.Fatalf("golden bytes decode to %+v, want %+v", q, p)
	}
	Release(q)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func parcelEqual(a, b *Parcel) bool {
	if a.ID != b.ID || a.Dest != b.Dest || a.Action != b.Action ||
		a.Src != b.Src || a.Hops != b.Hops || a.Trace != b.Trace ||
		len(a.Cont) != len(b.Cont) {
		return false
	}
	if !bytes.Equal(a.Args, b.Args) {
		return false
	}
	for i := range a.Cont {
		if a.Cont[i] != b.Cont[i] {
			return false
		}
	}
	return true
}
