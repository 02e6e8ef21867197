package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/parcel"
	"repro/internal/transport"
)

// Hello payload, carried opaquely inside the transport handshake:
//
//	u8 version | u8 member | u32 count | count x (u16 len | name) |
//	[member = 1: u16 node | u32 lo | u32 hi | u16 len | dial address]
//
// The names are the sender's action table in dense ID order: position i is
// what a Parcel frame from that node means by action i. Because the hello
// precedes every frame on a connection and is re-announced on reconnect, a
// receiver always holds the sender's table before the first parcel naming
// a table position arrives. The member section announces
// elastic-membership support — the sender beats, expects beats and honors
// death verdicts — with its node ID, hosted locality range and dial-back
// address, which is how a joining node tells an established machine where
// to reach it.
const (
	helloVersion = 8

	// maxInternActions bounds the announced table by entry count, and
	// helloPrefix additionally bounds it by encoded bytes (the transport
	// caps handshake payloads at transport.MaxHello); ParseHello checks
	// the count symmetrically. Actions past either cap simply travel
	// spelled out.
	maxInternActions = 1 << 16
)

// MemberHello is the membership section of a hello.
type MemberHello struct {
	Node   int
	Lo, Hi int
	Addr   string
}

// size is the section's encoded length; a nil section has none.
func (mh *MemberHello) size() int {
	if mh == nil {
		return 0
	}
	return 12 + len(mh.Addr)
}

// helloPrefix reports how many of names (in order) fit the announced
// table's count and byte budgets, the byte budget being what the member
// section mh (nil for none) leaves of transport.MaxHello.
func helloPrefix(names []string, mh *MemberHello) int {
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

// EncodeHello encodes a node's announcement: its action table (truncated
// to the helloPrefix budgets) and, when mh is non-nil, the membership
// section.
func EncodeHello(names []string, mh *MemberHello) []byte {
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
		buf = binary.LittleEndian.AppendUint16(buf, uint16(mh.Node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.Lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mh.Hi))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(mh.Addr)))
		buf = append(buf, mh.Addr...)
	}
	return buf
}

// ParseHello decodes a peer's announcement.
func ParseHello(payload []byte) (names []string, mh *MemberHello, err error) {
	if len(payload) > transport.MaxHello {
		// Defense in depth: transports already cap handshake payloads.
		// Bounding here also keeps accepted hellos inside the same byte
		// budget EncodeHello encodes to.
		return nil, nil, fmt.Errorf("wire: %d-byte hello exceeds limit %d", len(payload), transport.MaxHello)
	}
	c := Cursor{b: payload}
	if v := c.U8(); !c.bad && v != helloVersion {
		return nil, nil, fmt.Errorf("wire: peer speaks hello version %d, this node speaks %d", v, helloVersion)
	}
	member := c.U8()
	count := int(c.U32())
	if count > maxInternActions || member > 1 {
		return nil, nil, errField
	}
	if count > len(c.b)/2 { // every name costs at least its length prefix
		return nil, nil, errTruncated
	}
	names = make([]string, count)
	for i := range names {
		names[i] = c.Str16()
	}
	if member == 1 {
		mh = &MemberHello{Node: int(c.U16()), Lo: c.loc(), Hi: c.loc(), Addr: c.Str16()}
	}
	if err := c.End(); err != nil {
		return nil, nil, err
	}
	return names, mh, nil
}

// SendTable is the half of a node's announced action table its encoders
// consult: name to wire position.
type SendTable map[string]uint32

// NewSendTable returns the table EncodeHello announces for names and mh:
// the same budget-capped prefix, so a position this node ever puts on the
// wire is inside every peer's copy of the table.
func NewSendTable(names []string, mh *MemberHello) SendTable {
	t := make(SendTable)
	for i, name := range names[:helloPrefix(names, mh)] {
		t[name] = uint32(i)
	}
	return t
}

// IDOf reports the wire position of name within the announced prefix.
func (t SendTable) IDOf(name string) (uint32, bool) { id, ok := t[name]; return id, ok }

// RecvTable is the half a receiver decodes a peer's parcel frames
// against: position to the peer's announced name, pre-resolved to the
// local dispatch ID. Immutable once built, so decodes read it without
// locks.
type RecvTable struct {
	names []string
	aids  []uint32
}

// NewRecvTable builds the table for a peer's announced names, resolving
// each once through aid (parcel.NoAID for an action not registered here)
// so per-parcel decodes are pure slice reads.
func NewRecvTable(names []string, aid func(name string) uint32) *RecvTable {
	t := &RecvTable{names: names, aids: make([]uint32, len(names))}
	for i, name := range names {
		t.aids[i] = aid(name)
	}
	return t
}

// ActionOf resolves a received wire position. A nil table, a peer's
// before its hello arrives, resolves none.
func (t *RecvTable) ActionOf(id uint32) (string, uint32, bool) {
	if t == nil || int(id) >= len(t.names) {
		return "", parcel.NoAID, false
	}
	return t.names[id], t.aids[id], true
}
