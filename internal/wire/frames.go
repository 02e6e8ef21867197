// Package wire is the cross-node data format: every frame kind's byte
// layout, the hello payload that rides the transport handshake, the two
// halves of the action table a parcel frame is written against, and the
// one bounds-checked cursor all of it is read through. Everything here is a
// pure function over bytes — what a node does with a decoded frame lives
// with the protocol it belongs to, in internal/core.
//
// Every transport frame is one kind byte followed by that kind's body.
// Bodies are exact: a frame shorter or longer than its layout is rejected,
// with one stated exception — a parcel may be followed by exactly one
// trace-context trailer (parcel.TraceWireSize bytes).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/agas"
	"repro/internal/parcel"
)

// Frame kinds. The values are the wire format; a new kind goes directly
// above frameKindEnd and gets a row in frameKinds.
const (
	Parcel     byte = iota + 1 // parcel: actions as positions in the sender's announced table, or spelled out
	Drain                      // quiescence probe
	DrainReply                 // probe answer: the replier's accounting snapshot
	Goodbye                    // clean departure with final totals
	Halt                       // cooperative machine-wide halt request
	Moved                      // one-way "the object moved" hint to a stale sender
	Beat                       // membership heartbeat
	Dead                       // authoritative death verdict
	Load                       // balancer load report
	frameKindEnd
)

// Msg is the decoded form of a frame of any kind: one flat record, of
// which each kind fills the fields its layout names.
type Msg struct {
	Kind byte           // the frame's kind byte
	P    *parcel.Parcel // pooled and owned by whoever holds the message
	ID   uint64         // probe sequence number or beat fingerprint
	GID  agas.GID
	Loc  int    // a locality index
	Gen  uint64 // directory generation

	Pending    int64
	Sent, Recv uint64
	FP         uint64 // the replier's membership fingerprint (DrainReply)
	Node       int
	Loads      []LoadEntry
}

// LoadEntry is one locality's score in a Load report.
type LoadEntry struct {
	Loc   int
	Score float64
}

// Env is everything a decoder knows beyond the bytes.
type Env struct {
	Table *RecvTable // the sender's announced action table (Parcel); nil before its hello
	Shard int        // the shard a decoded parcel takes, fixed per sending node (Parcel)
	Width int        // machine width: Load reports only localities below it
}

// frameKind is one row of the wire format.
type frameKind struct {
	name   string
	layout string // the body after the kind byte, as ARCHITECTURE.md's wire-format table prints it
}

// frameKinds lists every kind: Decode accepts exactly these, and the fuzz
// target and layout tests iterate them.
var frameKinds = [frameKindEnd]frameKind{
	Parcel:     {"fParcel", "parcel, [trace]"},
	Drain:      {"fDrain", "u64 seq"},
	DrainReply: {"fDrainReply", "u64 seq, i64 pending, u64 sent, u64 recv, u64 fingerprint"},
	Goodbye:    {"fGoodbye", "u64 sent, u64 recv"},
	Halt:       {"fHalt", "(empty)"},
	Moved:      {"fMoved", "gid, u32 owner, u64 gen"},
	Beat:       {"fBeat", "u64 fingerprint"},
	Dead:       {"fDead", "u16 node"},
	Load:       {"fLoad", "u16 n, n x (u32 locality, f64 score)"},
}

// kindOf returns k's row, or nil for a byte that names no kind.
func kindOf(k byte) *frameKind {
	if k == 0 || k >= frameKindEnd {
		return nil
	}
	return &frameKinds[k]
}

// Decode decodes one frame: its kind byte, then that kind's body. The
// message's Kind is the frame's kind byte whenever that names a kind, even
// when the body is rejected, so a caller can tell a bad parcel frame from a
// bad control frame. Every field is read straight into the result, so a
// message is copied once, to the caller.
func Decode(frame []byte, env Env) (m Msg, err error) {
	if len(frame) == 0 {
		return m, errors.New("empty frame")
	}
	row := kindOf(frame[0])
	if row == nil {
		return m, fmt.Errorf("unknown frame type %d", frame[0])
	}
	m.Kind = frame[0]
	c := Cursor{b: frame[1:]}
	switch m.Kind {
	case Parcel:
		m.P, err = decodeParcel(c.rest(), env)
	case Drain, Beat:
		m.ID = c.U64()
	case DrainReply:
		m.ID = c.U64()
		m.Pending = int64(c.U64())
		m.Sent = c.U64()
		m.Recv = c.U64()
		m.FP = c.U64()
	case Goodbye:
		m.Sent = c.U64()
		m.Recv = c.U64()
	case Halt:
	case Moved:
		m.GID = c.GID()
		m.Loc = c.loc()
		m.Gen = c.U64()
	case Dead:
		m.Node = int(c.U16())
	case Load:
		m.Loads, err = decodeLoad(&c, env.Width)
	default:
		err = errNoCase // a kind listed in frameKinds but not decoded here
	}
	if err == nil {
		err = c.End()
	}
	if err != nil {
		return Msg{Kind: m.Kind}, fmt.Errorf("bad %s frame (%s) of %d bytes: %w", row.name, row.layout, len(frame), err)
	}
	return m, nil
}

var (
	errTruncated = errors.New("truncated")
	errTrailing  = errors.New("trailing bytes")
	errField     = errors.New("field out of range")
	errNoCase    = errors.New("no decoder")
)

// Cursor reads little-endian fields off the front of a byte slice. The
// first read past the end marks it bad, and from then on every read yields
// zero: a decoder reads its whole layout unconditionally and asks End once.
type Cursor struct {
	b   []byte
	bad bool
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

func (c *Cursor) take(n int) []byte {
	if c.bad || n < 0 || n > len(c.b) {
		c.bad = true
		return nil
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

// Len reports how many bytes are left.
func (c *Cursor) Len() int { return len(c.b) }

// Bad reports whether a read has run past the end.
func (c *Cursor) Bad() bool { return c.bad }

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if s := c.take(1); len(s) == 1 {
		return s[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 {
	if s := c.take(2); len(s) == 2 {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if s := c.take(4); len(s) == 4 {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if s := c.take(8); len(s) == 8 {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

// GID reads an encoded agas.GID.
func (c *Cursor) GID() agas.GID {
	g, _, _ := agas.DecodeGID(c.take(agas.GIDSize)) // a short read is already flagged
	return g
}

// loc reads a locality index, on the wire always a u32.
func (c *Cursor) loc() int { return int(c.U32()) }

// Str16 reads a u16-length-prefixed string.
func (c *Cursor) Str16() string { return string(c.take(int(c.U16()))) }

// Bytes32 reads a u32-length-prefixed run, aliasing the input.
func (c *Cursor) Bytes32() []byte { return c.take(int(c.U32())) }

// rest consumes whatever is left.
func (c *Cursor) rest() []byte { return c.take(len(c.b)) }

// trace reads the optional trace trailer: present exactly when what remains
// is one trailer long.
func (c *Cursor) trace() (tc parcel.TraceCtx) {
	if len(c.b) == parcel.TraceWireSize {
		tc, _, _ = parcel.DecodeTrace(c.rest())
	}
	return tc
}

// End reports whether the input was exactly its layout: every read in
// bounds and no byte left over.
func (c *Cursor) End() error {
	switch {
	case c.bad:
		return errTruncated
	case len(c.b) != 0:
		return errTrailing
	}
	return nil
}

// AppendParcel appends p's frame to dst: actions as positions in tbl
// where it knows them and spelled out otherwise (all of them when tbl is
// nil), then the trace trailer if p carries a context. Every action name
// must fit the wire (see OversizedAction).
func AppendParcel(dst []byte, p *parcel.Parcel, tbl SendTable) []byte {
	dst = p.EncodeInterned(append(dst, Parcel), tbl)
	if !p.Trace.Zero() {
		dst = p.Trace.Append(dst)
	}
	return dst
}

// OversizedAction returns the first action name of p too long for the
// wire. AppendParcel panics on such a name, so a sender asks first.
func OversizedAction(p *parcel.Parcel) (string, bool) {
	if len(p.Action) > parcel.MaxInternString {
		return p.Action, true
	}
	for _, c := range p.Cont {
		if len(c.Action) > parcel.MaxInternString {
			return c.Action, true
		}
	}
	return "", false
}

// decodeParcel decodes a parcel against the sender's table; the parcel
// wire form never leaves trailing bytes, so what follows it is nothing or
// one trace trailer.
func decodeParcel(b []byte, env Env) (*parcel.Parcel, error) {
	p, rest, err := parcel.DecodePooledInterned(b, env.Table, env.Shard)
	if err == nil {
		c := Cursor{b: rest}
		p.Trace = c.trace()
		err = c.End()
	}
	if err != nil {
		parcel.Release(p)
		return nil, err
	}
	return p, nil
}

// EncodeHalt renders a halt request.
func EncodeHalt() []byte { return []byte{Halt} }

// EncodeDrain renders a quiescence probe.
func EncodeDrain(seq uint64) []byte { return encodeID(Drain, seq) }

// EncodeBeat renders a heartbeat carrying the sender's membership
// fingerprint.
func EncodeBeat(fp uint64) []byte { return encodeID(Beat, fp) }

// encodeID renders the kinds whose whole body is one u64: a probe sequence
// number (Drain), a membership fingerprint (Beat).
func encodeID(kind byte, id uint64) []byte {
	buf := append(make([]byte, 0, 9), kind)
	return binary.LittleEndian.AppendUint64(buf, id)
}

// EncodeDrainReply renders a probe answer: the replier's accounting
// snapshot and membership fingerprint.
func EncodeDrainReply(seq uint64, pending int64, sent, recv, fp uint64) []byte {
	buf := append(make([]byte, 0, 41), DrainReply)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pending))
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	buf = binary.LittleEndian.AppendUint64(buf, recv)
	return binary.LittleEndian.AppendUint64(buf, fp)
}

// EncodeGoodbye renders a clean departure with the sender's final totals.
func EncodeGoodbye(sent, recv uint64) []byte {
	buf := append(make([]byte, 0, 17), Goodbye)
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	return binary.LittleEndian.AppendUint64(buf, recv)
}

// EncodeMoved renders the hint that g lives at locality owner as of
// directory generation gen.
func EncodeMoved(g agas.GID, owner int, gen uint64) []byte {
	buf := append(make([]byte, 0, 1+agas.GIDSize+12), Moved)
	buf = g.Encode(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(owner))
	return binary.LittleEndian.AppendUint64(buf, gen)
}

// EncodeDead renders the verdict that node is dead.
func EncodeDead(node int) []byte {
	buf := append(make([]byte, 0, 3), Dead)
	return binary.LittleEndian.AppendUint16(buf, uint16(node))
}

// EncodeLoad renders a load report; entries must number 1..65535.
func EncodeLoad(entries []LoadEntry) []byte {
	buf := append(make([]byte, 0, 3+12*len(entries)), Load)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Loc))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Score))
	}
	return buf
}

// decodeLoad reads a Load body, rejecting the whole report when any entry
// names a locality outside the machine (width localities) or carries a
// score no balancer can have computed: the receiver's load table is keyed
// by what this accepts.
func decodeLoad(c *Cursor, width int) ([]LoadEntry, error) {
	n := int(c.U16())
	if n == 0 || len(c.b) != 12*n {
		return nil, errTruncated
	}
	loads := make([]LoadEntry, n)
	for i := range loads {
		e := LoadEntry{Loc: c.loc(), Score: math.Float64frombits(c.U64())}
		if e.Loc < 0 || e.Loc >= width || math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score < 0 {
			return nil, errField
		}
		loads[i] = e
	}
	return loads, nil
}
