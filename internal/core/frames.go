package core

// The cross-node data format: every frame kind's byte layout, the hello
// payload that rides the transport handshake, and the one bounds-checked
// cursor all of it is read through. Everything here is a pure function over
// bytes — what a node does with a decoded frame lives with the protocol it
// belongs to (dist.go, membership.go, balance.go).
//
// Every transport frame is one kind byte followed by that kind's body.
// Bodies are exact: a frame shorter or longer than its layout is rejected,
// with one stated exception — a parcel may be followed by exactly one
// trace-context trailer (parcel.TraceWireSize bytes).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// Frame kinds. The values are the wire format; a new kind goes directly
// above frameKindEnd and gets a row in frameKinds.
const (
	fParcel     byte = iota + 1 // parcel: actions as positions in the sender's announced table, or spelled out
	fDrain                      // quiescence probe
	fDrainReply                 // probe answer: the replier's accounting snapshot
	fGoodbye                    // clean departure with final totals
	fHalt                       // cooperative machine-wide halt request
	fMoved                      // one-way "the object moved" hint to a stale sender
	fBeat                       // membership heartbeat
	fDead                       // authoritative death verdict
	fLoad                       // balancer load report
	frameKindEnd
)

// frameMsg is the decoded form of a frame of any kind: one flat record, of
// which each kind fills the fields its layout names.
type frameMsg struct {
	p   *parcel.Parcel // pooled and owned by whoever holds the message
	id  uint64         // probe sequence number or beat fingerprint
	g   agas.GID
	loc int    // a locality index
	gen uint64 // directory generation

	pending    int64
	sent, recv uint64
	fp         uint64 // the replier's membership fingerprint (fDrainReply)
	node       int
	loads      []loadEntry
}

// loadEntry is one locality's score in an fLoad report.
type loadEntry struct {
	loc   int
	score float64
}

// frameEnv is everything a decoder knows beyond the bytes.
type frameEnv struct {
	tbl   parcel.Table // the sender's announced action table (fParcel)
	shard int          // the shard a decoded parcel takes, fixed per sending node (fParcel)
	width int          // machine width: fLoad reports only localities below it
}

// frameKind is one row of the wire format.
type frameKind struct {
	name   string
	layout string // the body after the kind byte, as ARCHITECTURE.md's wire-format table prints it
	decode func(body []byte, env frameEnv) (frameMsg, error)
}

// frameKinds lists every kind: onFrame decodes through it, and the fuzz
// target and layout tests iterate it.
var frameKinds = [frameKindEnd]frameKind{
	fParcel:     {"fParcel", "parcel, [trace]", decodeParcel},
	fDrain:      {"fDrain", "u64 seq", decodeID},
	fDrainReply: {"fDrainReply", "u64 seq, i64 pending, u64 sent, u64 recv, u64 fingerprint", decodeDrainReply},
	fGoodbye:    {"fGoodbye", "u64 sent, u64 recv", decodeGoodbye},
	fHalt:       {"fHalt", "(empty)", decodeEmpty},
	fMoved:      {"fMoved", "gid, u32 owner, u64 gen", decodeMoved},
	fBeat:       {"fBeat", "u64 fingerprint", decodeID},
	fDead:       {"fDead", "u16 node", decodeDead},
	fLoad:       {"fLoad", "u16 n, n x (u32 locality, f64 score)", decodeLoad},
}

// kindOf returns k's row, or nil for a byte that names no kind.
func kindOf(k byte) *frameKind {
	if k == 0 || k >= frameKindEnd {
		return nil
	}
	return &frameKinds[k]
}

var (
	errTruncated = errors.New("truncated")
	errTrailing  = errors.New("trailing bytes")
	errField     = errors.New("field out of range")
)

// cursor reads little-endian fields off the front of b. The first read past
// the end sets bad, and from then on every read yields zero: a decoder
// reads its whole layout unconditionally and asks end once.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) take(n int) []byte {
	if c.bad || n < 0 || n > len(c.b) {
		c.bad = true
		return nil
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

func (c *cursor) u8() byte {
	if s := c.take(1); len(s) == 1 {
		return s[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if s := c.take(2); len(s) == 2 {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if s := c.take(4); len(s) == 4 {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if s := c.take(8); len(s) == 8 {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (c *cursor) gid() agas.GID {
	g, _, _ := agas.DecodeGID(c.take(agas.GIDSize)) // a short read is already flagged
	return g
}

// loc reads a locality index, on the wire always a u32.
func (c *cursor) loc() int { return int(c.u32()) }

// str16 and bytes32 read a length-prefixed run; bytes32 aliases b.
func (c *cursor) str16() string   { return string(c.take(int(c.u16()))) }
func (c *cursor) bytes32() []byte { return c.take(int(c.u32())) }

// rest consumes whatever is left.
func (c *cursor) rest() []byte { return c.take(len(c.b)) }

// trace reads the optional trace trailer: present exactly when what remains
// is one trailer long.
func (c *cursor) trace() (tc parcel.TraceCtx) {
	if len(c.b) == parcel.TraceWireSize {
		tc, _, _ = parcel.DecodeTrace(c.rest())
	}
	return tc
}

// end reports whether the input was exactly its layout: every read in
// bounds and no byte left over.
func (c *cursor) end() error {
	switch {
	case c.bad:
		return errTruncated
	case len(c.b) != 0:
		return errTrailing
	}
	return nil
}

// appendParcel appends p's frame to dst: actions as positions in tbl
// where it knows them and spelled out otherwise (all of them when tbl is
// nil), then the trace trailer if p carries a context. Every action name
// must fit the wire (see oversizedAction).
func appendParcel(dst []byte, p *parcel.Parcel, tbl parcel.Table) []byte {
	dst = p.EncodeInterned(append(dst, fParcel), tbl)
	if !p.Trace.Zero() {
		dst = p.Trace.Append(dst)
	}
	return dst
}

// oversizedAction returns the first action name of p too long for the
// wire. RegisterAction refuses such a name, so no node can run it.
func oversizedAction(p *parcel.Parcel) (string, bool) {
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
func decodeParcel(b []byte, env frameEnv) (frameMsg, error) {
	p, rest, err := parcel.DecodePooledInterned(b, env.tbl, env.shard)
	if err == nil {
		c := cursor{b: rest}
		p.Trace = c.trace()
		err = c.end()
	}
	if err != nil {
		parcel.Release(p)
		return frameMsg{}, err
	}
	return frameMsg{p: p}, nil
}

func decodeEmpty(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	return m, c.end()
}

// encodeID and decodeID are the kinds whose whole body is one u64: a probe
// sequence number (fDrain), a membership fingerprint (fBeat).
func encodeID(kind byte, id uint64) []byte {
	buf := append(make([]byte, 0, 9), kind)
	return binary.LittleEndian.AppendUint64(buf, id)
}

func decodeID(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	m.id = c.u64()
	return m, c.end()
}

func encodeDrainReply(seq uint64, pending int64, sent, recv, fp uint64) []byte {
	buf := append(make([]byte, 0, 41), fDrainReply)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(pending))
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	buf = binary.LittleEndian.AppendUint64(buf, recv)
	return binary.LittleEndian.AppendUint64(buf, fp)
}

func decodeDrainReply(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	m.id = c.u64()
	m.pending = int64(c.u64())
	m.sent = c.u64()
	m.recv = c.u64()
	m.fp = c.u64()
	return m, c.end()
}

func encodeGoodbye(sent, recv uint64) []byte {
	buf := append(make([]byte, 0, 17), fGoodbye)
	buf = binary.LittleEndian.AppendUint64(buf, sent)
	return binary.LittleEndian.AppendUint64(buf, recv)
}

func decodeGoodbye(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	m.sent = c.u64()
	m.recv = c.u64()
	return m, c.end()
}

func encodeMoved(g agas.GID, owner int, gen uint64) []byte {
	buf := append(make([]byte, 0, 1+agas.GIDSize+12), fMoved)
	buf = g.Encode(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(owner))
	return binary.LittleEndian.AppendUint64(buf, gen)
}

func decodeMoved(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	m.g = c.gid()
	m.loc = c.loc()
	m.gen = c.u64()
	return m, c.end()
}

func encodeDead(node int) []byte {
	buf := append(make([]byte, 0, 3), fDead)
	return binary.LittleEndian.AppendUint16(buf, uint16(node))
}

func decodeDead(b []byte, _ frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	m.node = int(c.u16())
	return m, c.end()
}

// encodeLoad renders a load report; entries must number 1..65535.
func encodeLoad(entries []loadEntry) []byte {
	buf := append(make([]byte, 0, 3+12*len(entries)), fLoad)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.loc))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.score))
	}
	return buf
}

// decodeLoad rejects the whole report when any entry names a locality
// outside the machine or carries a score no balancer can have computed: the
// receiver's load table is keyed by what this accepts.
func decodeLoad(b []byte, env frameEnv) (m frameMsg, err error) {
	c := cursor{b: b}
	n := int(c.u16())
	if n == 0 || len(c.b) != 12*n {
		return m, errTruncated
	}
	m.loads = make([]loadEntry, n)
	for i := range m.loads {
		e := loadEntry{loc: c.loc(), score: math.Float64frombits(c.u64())}
		if e.loc < 0 || e.loc >= env.width || math.IsNaN(e.score) || math.IsInf(e.score, 0) || e.score < 0 {
			return frameMsg{}, errField
		}
		m.loads[i] = e
	}
	return m, c.end()
}

// Hello payload, carried opaquely inside the transport handshake:
//
//	u8 version | u8 member | u32 count | count x (u16 len | name) |
//	[member = 1: u16 node | u32 lo | u32 hi | u16 len | dial address]
//
// The names are the sender's action table in dense ID order: position i is
// what an fParcel frame from that node means by action i. The member
// section announces elastic-membership support — the sender beats, expects
// beats and honors death verdicts — with its node ID, hosted locality
// range and dial-back address, which is how a joining node tells an
// established machine where to reach it.
const (
	helloVersion = 8

	// maxInternActions bounds the announced table by entry count, and
	// helloPrefix additionally bounds it by encoded bytes (the transport
	// caps handshake payloads at transport.MaxHello); parseHello checks
	// the count symmetrically. Actions past either cap simply travel
	// spelled out.
	maxInternActions = 1 << 16
)

// memberHello is the membership section of a hello.
type memberHello struct {
	node   int
	lo, hi int
	addr   string
}

// size is the section's encoded length; a nil section has none.
func (mh *memberHello) size() int {
	if mh == nil {
		return 0
	}
	return 12 + len(mh.addr)
}

// helloPrefix reports how many of names (in order) fit the announced
// table's count and byte budgets, the byte budget being what the member
// section mh (nil for none) leaves of transport.MaxHello.
func helloPrefix(names []string, mh *memberHello) int {
	n := len(names)
	if n > maxInternActions {
		n = maxInternActions
	}
	size := 6 + mh.size()
	for i := 0; i < n; i++ {
		size += 2 + len(names[i])
		if size > transport.MaxHello {
			return i
		}
	}
	return n
}

// encodeHello encodes this node's announcement: its action table
// (truncated to the helloPrefix budgets) and, when mh is non-nil, the
// membership section.
func encodeHello(names []string, mh *memberHello) []byte {
	names = names[:helloPrefix(names, mh)]
	size := 6 + mh.size()
	for _, n := range names {
		size += 2 + len(n)
	}
	var member byte
	if mh != nil {
		member = 1
	}
	buf := append(make([]byte, 0, size), helloVersion, member)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
	}
	if mh != nil {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(mh.node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.hi))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(mh.addr)))
		buf = append(buf, mh.addr...)
	}
	return buf
}

// parseHello decodes a peer's announcement.
func parseHello(payload []byte) (names []string, mh *memberHello, err error) {
	if len(payload) > transport.MaxHello {
		// Defense in depth: transports already cap handshake payloads.
		// Bounding here also keeps accepted hellos inside the same byte
		// budget encodeHello encodes to.
		return nil, nil, fmt.Errorf("core: %d-byte hello exceeds limit %d", len(payload), transport.MaxHello)
	}
	c := cursor{b: payload}
	if v := c.u8(); !c.bad && v != helloVersion {
		return nil, nil, fmt.Errorf("core: peer speaks hello version %d, this node speaks %d", v, helloVersion)
	}
	member := c.u8()
	count := int(c.u32())
	if count > maxInternActions || member > 1 {
		return nil, nil, errField
	}
	if count > len(c.b)/2 { // every name costs at least its length prefix
		return nil, nil, errTruncated
	}
	names = make([]string, count)
	for i := range names {
		names[i] = c.str16()
	}
	if member == 1 {
		mh = &memberHello{node: int(c.u16()), lo: c.loc(), hi: c.loc(), addr: c.str16()}
	}
	if err := c.end(); err != nil {
		return nil, nil, err
	}
	return names, mh, nil
}
