package parcel

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/agas"
)

// ValueCodec extends EncodeAny/DecodeAny with one application value type.
// Encode reports ok=false when v is not its type (the next codec is
// tried); Decode reconstructs a value from the bytes Encode produced and
// must not retain them: DecodeAny is handed records that alias a pooled
// parcel's arguments, so a decoded value owns its memory.
// Codecs travel by name, so a codec must be registered under the same name
// on every node that may host the value — the same contract actions obey.
type ValueCodec struct {
	Encode func(v any) (payload []byte, ok bool, err error)
	Decode func(payload []byte) (any, error)
}

// valueCodecs is the registry of application codecs. Registration is an
// init-time operation; reads take the lock but the map is tiny.
var (
	valueCodecMu    sync.RWMutex
	valueCodecs     = map[string]ValueCodec{}
	valueCodecOrder []string
)

// RegisterValueCodec installs a named application codec consulted by
// EncodeAny for values outside the built-in set and by DecodeAny for
// records the codec produced. Registering a duplicate name panics:
// codec names are wire-visible constants, so a collision is a program bug.
func RegisterValueCodec(name string, c ValueCodec) {
	if name == "" || c.Encode == nil || c.Decode == nil {
		panic("parcel: value codec needs a name, an encoder, and a decoder")
	}
	valueCodecMu.Lock()
	defer valueCodecMu.Unlock()
	if _, dup := valueCodecs[name]; dup {
		panic(fmt.Sprintf("parcel: value codec %q already registered", name))
	}
	valueCodecs[name] = c
	valueCodecOrder = append(valueCodecOrder, name)
}

// appendCustom appends a tagCustom record: tag | u16 name | u32 payload.
func appendCustom(dst []byte, name string, payload []byte) []byte {
	dst = append(dst, tagCustom)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// decodeCustom parses a tagCustom record and dispatches to its codec.
func decodeCustom(buf []byte) (any, error) {
	buf = buf[1:] // tag, checked by the caller
	if len(buf) < 2 {
		return nil, fmt.Errorf("parcel: custom value: short name length")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return nil, fmt.Errorf("parcel: custom value: name truncated")
	}
	name := string(buf[:n])
	buf = buf[n:]
	if len(buf) < 4 {
		return nil, fmt.Errorf("parcel: custom value %q: short payload length", name)
	}
	pn := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < pn {
		return nil, fmt.Errorf("parcel: custom value %q: payload truncated", name)
	}
	valueCodecMu.RLock()
	c, ok := valueCodecs[name]
	valueCodecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("parcel: no value codec %q registered on this node", name)
	}
	return c.Decode(buf[:pn])
}

// EncodeAny encodes a single dynamically-typed value using the argument
// codec. It supports the codec's value set: nil, bool, int/int64, uint64,
// float64, string, []byte, []float64, []int64, and agas.GID. Action results
// travel through this when forwarded to a continuation.
func EncodeAny(v any) ([]byte, error) { return AppendAny(nil, v) }

// AppendAny appends the EncodeAny record of v to dst; on error dst is
// returned unchanged.
func AppendAny(dst []byte, v any) ([]byte, error) {
	a := Args{buf: dst}
	switch x := v.(type) {
	case nil:
		a.Bool(false) // nil travels as a false bool sentinel record
	case bool:
		a.Bool(x)
	case int:
		a.Int64(int64(x))
	case int64:
		a.Int64(x)
	case uint64:
		a.Uint64(x)
	case float64:
		a.Float64(x)
	case string:
		a.String(x)
	case []byte:
		a.Bytes(x)
	case []float64:
		a.Float64s(x)
	case []int64:
		a.Int64s(x)
	case agas.GID:
		a.GID(x)
	default:
		valueCodecMu.RLock()
		names := valueCodecOrder
		valueCodecMu.RUnlock()
		for _, name := range names {
			valueCodecMu.RLock()
			c := valueCodecs[name]
			valueCodecMu.RUnlock()
			payload, ok, err := c.Encode(v)
			if err != nil {
				return dst, fmt.Errorf("parcel: value codec %q: %w", name, err)
			}
			if ok {
				return appendCustom(dst, name, payload), nil
			}
		}
		return dst, fmt.Errorf("parcel: cannot encode %T as parcel value", v)
	}
	return a.buf, nil
}

// DecodeAny decodes a value produced by EncodeAny by dispatching on the
// leading type tag. Integers come back as int64 and byte/float/int vectors
// as their slice types. The value never aliases buf.
func DecodeAny(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("parcel: empty value record")
	}
	if buf[0] == tagCustom {
		return decodeCustom(buf)
	}
	r := NewReader(buf)
	var v any
	switch buf[0] {
	case tagBool:
		v = r.Bool()
	case tagInt64:
		v = r.Int64()
	case tagUint64:
		v = r.Uint64()
	case tagFloat64:
		v = r.Float64()
	case tagString:
		v = r.String()
	case tagBytes:
		v = r.Bytes()
	case tagFloat64s:
		v = r.Float64s()
	case tagInt64s:
		v = r.Int64s()
	case tagGID:
		v = r.GID()
	default:
		return nil, fmt.Errorf("parcel: unknown value tag %d", buf[0])
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return v, nil
}
