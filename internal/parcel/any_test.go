package parcel

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// testPoint exercises the custom value codec registry.
type testPoint struct{ X, Y int64 }

func init() {
	RegisterValueCodec("test.point", ValueCodec{
		Encode: func(v any) ([]byte, bool, error) {
			p, ok := v.(testPoint)
			if !ok {
				return nil, false, nil
			}
			return NewArgs().Int64(p.X).Int64(p.Y).Encode(), true, nil
		},
		Decode: func(payload []byte) (any, error) {
			r := NewReader(payload)
			p := testPoint{X: r.Int64(), Y: r.Int64()}
			return p, r.Err()
		},
	})
}

func TestCustomValueCodecRoundTrip(t *testing.T) {
	raw, err := EncodeAny(testPoint{X: 3, Y: -9})
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeAny(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p := v.(testPoint); p.X != 3 || p.Y != -9 {
		t.Fatalf("roundtrip = %+v", p)
	}
	// Built-in types must still bypass the custom path.
	raw, err = EncodeAny(int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := DecodeAny(raw); err != nil || v.(int64) != 5 {
		t.Fatalf("builtin roundtrip = %v, %v", v, err)
	}
}

func TestCustomValueCodecUnknownAndCorrupt(t *testing.T) {
	if _, err := EncodeAny(struct{ q int }{}); err == nil {
		t.Fatal("unencodable type accepted")
	}
	// A record naming an unregistered codec must error, not panic.
	raw := appendCustom(nil, "test.nope", []byte{1, 2, 3})
	if _, err := DecodeAny(raw); err == nil {
		t.Fatal("unregistered codec decoded")
	}
	// Truncations at every boundary.
	good, err := EncodeAny(testPoint{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeAny(good[:cut]); err == nil {
			t.Fatalf("truncated custom record at %d decoded", cut)
		}
	}
}

func TestRegisterValueCodecValidation(t *testing.T) {
	for name, c := range map[string]ValueCodec{
		"":         {Encode: func(any) ([]byte, bool, error) { return nil, false, nil }, Decode: func([]byte) (any, error) { return nil, nil }},
		"test.nil": {},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid codec %q accepted", name)
				}
			}()
			RegisterValueCodec(name, c)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate codec name accepted")
		}
	}()
	RegisterValueCodec("test.point", ValueCodec{
		Encode: func(any) ([]byte, bool, error) { return nil, false, nil },
		Decode: func([]byte) (any, error) { return nil, fmt.Errorf("no") },
	})
}

// TestAcquireValueMatchesTwoStepEncoding: the in-place encoding is byte for
// byte the record the two-step form (EncodeAny, then a bytes argument)
// builds, for every built-in value type and a custom one, and a recycled
// parcel's backing store leaves no residue in the next record.
func TestAcquireValueMatchesTwoStepEncoding(t *testing.T) {
	parent := New(sampleGID(2), "parent", nil)
	values := []any{nil, true, 7, int64(-7), uint64(7), 3.5, "text", []byte("sixty-four bytes, or fewer"),
		[]byte{}, []float64{1, 2}, []int64{3, 4}, sampleGID(5), testPoint{X: 1, Y: 2}}
	for _, v := range values {
		raw, err := EncodeAny(v)
		if err != nil {
			t.Fatal(err)
		}
		want := NewArgs().Bytes(raw).Encode()
		p, err := AcquireValue(parent, sampleGID(1), "act", v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Args, want) {
			t.Errorf("AcquireValue(%#v) args = %x, want %x", v, p.Args, want)
		}
		rd := NewReader(p.Args)
		got, err := DecodeAny(rd.BytesAliased())
		if err != nil || rd.Err() != nil {
			t.Errorf("decoding %#v in place: %v, %v", v, err, rd.Err())
		}
		if ref, _ := DecodeAny(raw); !reflect.DeepEqual(got, ref) {
			t.Errorf("in-place decode of %#v = %#v, want %#v", v, got, ref)
		}
		Release(p)
	}
	if _, err := AcquireValue(parent, sampleGID(1), "act", struct{ q int }{}); err == nil {
		t.Fatal("unencodable value accepted")
	}
}

// TestOwnArgsRecordsInPlace: a trigger-shaped record (header fields, a
// value, a nested record) built in a parcel's own store reads back like
// the two-step form, an unencodable value leaves the builder untouched,
// and once the pool is warm the whole cycle allocates nothing.
func TestOwnArgsRecordsInPlace(t *testing.T) {
	nested := NewArgs().GID(sampleGID(3)).Uint64(4).Encode()
	raw, _ := EncodeAny("value")
	want := NewArgs().Uint64(1).Bytes(raw).Bytes(nested).Encode()
	bad := any(struct{ q int }{})
	build := func(withBad bool) *Parcel {
		p := Acquire(sampleGID(1), "act", nil)
		a := p.OwnArgs()
		a.Uint64(1)
		if err := a.Value("value"); err != nil {
			t.Fatal(err)
		}
		if withBad && a.Value(bad) == nil {
			t.Fatal("unencodable value accepted")
		}
		mark := a.OpenRecord()
		a.GID(sampleGID(3)).Uint64(4)
		a.CloseRecord(mark)
		p.Args = a.Encode()
		return p
	}
	p := build(true)
	if !bytes.Equal(p.Args, want) {
		t.Fatalf("in-place record = %x, want %x", p.Args, want)
	}
	Release(p)
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { Release(build(false)) }); allocs != 0 {
		t.Fatalf("building a record in a warm parcel allocates %.1f/op, want 0", allocs)
	}
}

// TestArgsGrowByField: each field reserves its whole encoding at once, so
// a one-field record costs one allocation and a two-field record at most
// two, however long the fields are.
func TestArgsGrowByField(t *testing.T) {
	var sink []byte
	value, vector := make([]byte, 128), make([]float64, 128)
	for _, tc := range []struct {
		name  string
		build func() []byte
		max   float64
	}{
		{"string", func() []byte { return NewArgs().String("key-000042").Encode() }, 1},
		{"string+bytes", func() []byte { return NewArgs().String("key-000042").Bytes(value).Encode() }, 2},
		{"gid+float64s", func() []byte { return NewArgs().GID(sampleGID(1)).Float64s(vector).Encode() }, 2},
	} {
		if allocs := testing.AllocsPerRun(100, func() { sink = tc.build() }); allocs > tc.max {
			t.Errorf("%s record allocates %.0f times, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
	_ = sink
}
