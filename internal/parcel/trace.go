package parcel

import (
	"encoding/binary"
	"fmt"
)

// Distributed trace context. A sampled parcel carries a trace ID, the span
// ID of its most recent hop, and a flags byte across every hop of its
// continuation chain, so one logical operation can be followed post →
// wire → trigger across node boundaries. The context travels as a
// fixed-size trailer APPENDED AFTER the standard parcel wire form rather
// than as a field inside it, so an untraced parcel — the common case —
// pays no bytes for it.

// TraceWireSize is the encoded size of a trace-context trailer:
// u64 trace ID | u64 parent span ID | u8 flags.
const TraceWireSize = 17

// TraceSampled marks a context whose hops are recorded as spans. A
// context may propagate unsampled (ID set, flag clear) so a trace decided
// elsewhere keeps its identity without emitting spans here.
const TraceSampled = uint8(1 << 0)

// TraceCtx is a parcel's distributed trace context. The zero value means
// "untraced" and encodes to nothing.
type TraceCtx struct {
	// ID identifies the trace: every span of one logical operation —
	// across continuations, retransmissions, and node boundaries — shares
	// it. 0 means untraced.
	ID uint64
	// Span is the span ID of the most recent hop, i.e. the parent of the
	// next span emitted for this parcel.
	Span uint64
	// Flags holds the sampled bit (TraceSampled); unknown bits are
	// preserved across the wire for forward compatibility.
	Flags uint8
}

// Zero reports whether the context is absent (nothing to encode).
func (t TraceCtx) Zero() bool { return t == TraceCtx{} }

// Sampled reports whether hops of this parcel should be recorded.
func (t TraceCtx) Sampled() bool { return t.ID != 0 && t.Flags&TraceSampled != 0 }

// Append encodes the context's wire trailer onto dst.
func (t TraceCtx) Append(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, t.ID)
	dst = binary.LittleEndian.AppendUint64(dst, t.Span)
	return append(dst, t.Flags)
}

// DecodeTrace parses a trace-context trailer from the front of src,
// returning the remainder. Callers gate on the remaining length: exactly
// TraceWireSize trailing bytes after a parcel are a trace trailer.
func DecodeTrace(src []byte) (TraceCtx, []byte, error) {
	if len(src) < TraceWireSize {
		return TraceCtx{}, src, fmt.Errorf("parcel: short trace trailer (%d bytes)", len(src))
	}
	t := TraceCtx{
		ID:    binary.LittleEndian.Uint64(src[0:8]),
		Span:  binary.LittleEndian.Uint64(src[8:16]),
		Flags: src[16],
	}
	return t, src[TraceWireSize:], nil
}
