package parcel

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/agas"
)

// Args builds an encoded argument record. Values are written in order and
// must be read back in the same order and types by a Reader; the format is
// type-tagged so mismatches are detected rather than silently misread.
type Args struct {
	buf []byte
}

// Argument type tags.
const (
	tagInt64 byte = iota + 1
	tagUint64
	tagFloat64
	tagBool
	tagString
	tagBytes
	tagGID
	tagFloat64s
	tagInt64s
	// tagCustom marks a value encoded by a registered application codec
	// (see RegisterValueCodec): name and payload, both length-prefixed.
	tagCustom
)

// NewArgs returns an empty argument record builder.
func NewArgs() *Args { return &Args{} }

// grow makes room for n more bytes in one step, at least doubling the
// capacity when the record has to move: each field reserves its whole
// encoding before writing it, so a record grows field by field, never
// byte by byte.
func (a *Args) grow(n int) {
	if cap(a.buf)-len(a.buf) >= n {
		return
	}
	buf := make([]byte, len(a.buf), max(2*cap(a.buf), len(a.buf)+n))
	copy(buf, a.buf)
	a.buf = buf
}

// Int64 appends v.
func (a *Args) Int64(v int64) *Args {
	a.grow(9)
	a.buf = append(a.buf, tagInt64)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, uint64(v))
	return a
}

// Uint64 appends v.
func (a *Args) Uint64(v uint64) *Args {
	a.grow(9)
	a.buf = append(a.buf, tagUint64)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, v)
	return a
}

// Float64 appends v.
func (a *Args) Float64(v float64) *Args {
	a.grow(9)
	a.buf = append(a.buf, tagFloat64)
	a.buf = binary.LittleEndian.AppendUint64(a.buf, math.Float64bits(v))
	return a
}

// Bool appends v.
func (a *Args) Bool(v bool) *Args {
	b := byte(0)
	if v {
		b = 1
	}
	a.grow(2)
	a.buf = append(a.buf, tagBool, b)
	return a
}

// String appends v.
func (a *Args) String(v string) *Args {
	a.grow(5 + len(v))
	a.buf = append(a.buf, tagString)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(v)))
	a.buf = append(a.buf, v...)
	return a
}

// Bytes appends v.
func (a *Args) Bytes(v []byte) *Args {
	a.grow(5 + len(v))
	a.buf = append(a.buf, tagBytes)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(v)))
	a.buf = append(a.buf, v...)
	return a
}

// GID appends v.
func (a *Args) GID(v agas.GID) *Args {
	a.grow(1 + agas.GIDSize)
	a.buf = append(a.buf, tagGID)
	a.buf = v.Encode(a.buf)
	return a
}

// Float64s appends a vector.
func (a *Args) Float64s(v []float64) *Args {
	a.grow(5 + 8*len(v))
	a.buf = append(a.buf, tagFloat64s)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(v)))
	for _, x := range v {
		a.buf = binary.LittleEndian.AppendUint64(a.buf, math.Float64bits(x))
	}
	return a
}

// Int64s appends a vector.
func (a *Args) Int64s(v []int64) *Args {
	a.grow(5 + 8*len(v))
	a.buf = append(a.buf, tagInt64s)
	a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(len(v)))
	for _, x := range v {
		a.buf = binary.LittleEndian.AppendUint64(a.buf, uint64(x))
	}
	return a
}

// OpenRecord starts a bytes field whose contents are a nested record,
// written in place with the builder's other methods; CloseRecord, given
// the mark OpenRecord returned, patches the field's length. The nested
// record reads back as one Bytes (or BytesAliased) value.
func (a *Args) OpenRecord() (mark int) {
	a.grow(5)
	a.buf = append(a.buf, tagBytes, 0, 0, 0, 0)
	return len(a.buf)
}

// CloseRecord ends the bytes field OpenRecord started at mark.
func (a *Args) CloseRecord(mark int) {
	binary.LittleEndian.PutUint32(a.buf[mark-4:], uint32(len(a.buf)-mark))
}

// Value appends v's EncodeAny record as a bytes field, encoded in place:
// the single-value argument px.lco.* actions read. On error (v is not
// encodable) the builder is left as it was.
func (a *Args) Value(v any) error {
	mark := a.OpenRecord()
	buf, err := AppendAny(a.buf, v)
	if err != nil {
		a.buf = a.buf[:mark-5]
		return err
	}
	a.buf = buf
	a.CloseRecord(mark)
	return nil
}

// Encode returns the encoded record. The builder must not be reused after.
func (a *Args) Encode() []byte { return a.buf }

// Reader decodes an argument record in write order.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader reads the record produced by Args.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset repoints the reader at a new record, clearing position and error
// state, so one Reader value can serve many dispatches without
// reallocating.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.err = nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) tag(want byte, name string) bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("parcel: args exhausted reading %s", name)
		return false
	}
	got := r.buf[r.pos]
	if got != want {
		r.err = fmt.Errorf("parcel: args type mismatch: want %s tag %d, got %d at %d", name, want, got, r.pos)
		return false
	}
	r.pos++
	return true
}

func (r *Reader) need(n int, name string) bool {
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.pos < n {
		r.err = fmt.Errorf("parcel: args truncated reading %s", name)
		return false
	}
	return true
}

// Int64 reads an int64.
func (r *Reader) Int64() int64 {
	if !r.tag(tagInt64, "int64") || !r.need(8, "int64") {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Uint64 reads a uint64.
func (r *Reader) Uint64() uint64 {
	if !r.tag(tagUint64, "uint64") || !r.need(8, "uint64") {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 {
	if !r.tag(tagFloat64, "float64") || !r.need(8, "float64") {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

// Number reads an int64 or a float64 field without boxing it: isFloat
// reports which one it was, and the value is in i or f. Any other field
// sets Err, as a mismatched Int64 would.
func (r *Reader) Number() (i int64, f float64, isFloat bool) {
	if r.err == nil && r.pos < len(r.buf) && r.buf[r.pos] == tagFloat64 {
		return 0, r.Float64(), true
	}
	return r.Int64(), 0, false
}

// Bool reads a bool.
func (r *Reader) Bool() bool {
	if !r.tag(tagBool, "bool") || !r.need(1, "bool") {
		return false
	}
	v := r.buf[r.pos] != 0
	r.pos++
	return v
}

// String reads a string.
func (r *Reader) String() string { return string(r.StringAliased()) }

// StringAliased reads a string's bytes without copying them, with
// BytesAliased's lifetime: for a lookup such as m[string(b)], which
// allocates no string.
func (r *Reader) StringAliased() []byte {
	if !r.tag(tagString, "string") || !r.need(4, "string") {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if !r.need(n, "string body") {
		return nil
	}
	v := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// Bytes reads a byte slice (copied).
func (r *Reader) Bytes() []byte {
	v := r.BytesAliased()
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// BytesAliased reads a byte slice without copying it: the result aliases
// the record and is valid only as long as the record is. It is for
// consumers that decode the bytes before the record's owner recycles it.
func (r *Reader) BytesAliased() []byte {
	if !r.tag(tagBytes, "bytes") || !r.need(4, "bytes") {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if !r.need(n, "bytes body") {
		return nil
	}
	v := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return v
}

// GID reads a GID.
func (r *Reader) GID() agas.GID {
	if !r.tag(tagGID, "gid") || !r.need(agas.GIDSize, "gid") {
		return agas.Nil
	}
	g, rest, err := agas.DecodeGID(r.buf[r.pos:])
	if err != nil {
		r.err = err
		return agas.Nil
	}
	r.pos = len(r.buf) - len(rest)
	return g
}

// Float64s reads a vector.
func (r *Reader) Float64s() []float64 {
	if !r.tag(tagFloat64s, "float64s") || !r.need(4, "float64s") {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if !r.need(8*n, "float64s body") {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
	}
	return v
}

// Int64s reads a vector.
func (r *Reader) Int64s() []int64 {
	if !r.tag(tagInt64s, "int64s") || !r.need(4, "int64s") {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if !r.need(8*n, "int64s body") {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
	}
	return v
}
