package parcel

import (
	"encoding/binary"
	"fmt"
)

// Action references. Spelling action names out costs a string allocation
// per parcel, plus one per continuation, on every decode. Peers that have
// exchanged action tables (see the core distributed layer: the table rides
// the transport handshake hello) instead refer to actions by their dense
// table position, and the decoder hands back the interned name string it
// already holds: the steady-state decode allocates nothing.
//
// Every reference falls back on its own: a name the table does not know
// (registered after the table was exchanged, past the announced prefix, or
// encoded with no table at all) is spelled out. A parcel may therefore mix
// positions and spelled-out names. Each reference is
//
//	u16 tag | payload
//
// where tag == InternSentinel means payload is a u32 table position, and
// any other tag is a name length followed by that many bytes.

// InternSentinel is the u16 tag marking a table-position action reference.
// Spelled-out action names are capped one byte short of it so the two
// cases never collide.
const InternSentinel = 0xFFFF

// MaxInternString bounds action-name length on the wire.
const MaxInternString = InternSentinel - 1

// EncodeTable is the sender's half of an action table: what the local
// node announced to the peer.
type EncodeTable interface {
	// IDOf returns the wire position for name, when the name is inside the
	// announced prefix.
	IDOf(name string) (uint32, bool)
}

// DecodeTable is the receiver's half: what the peer announced to us.
type DecodeTable interface {
	// ActionOf resolves a received wire position to the action's name and
	// the local dispatch ID (NoAID when the action is known to the peer
	// but not registered locally). ok is false for positions outside the
	// peer's announced table — a corrupt or misordered frame.
	ActionOf(id uint32) (name string, aid uint32, ok bool)
}

// appendActionRef writes one action reference: a table position when t
// covers the name, the name spelled out otherwise.
func appendActionRef(dst []byte, name string, t EncodeTable) []byte {
	if t != nil {
		if id, ok := t.IDOf(name); ok {
			dst = binary.LittleEndian.AppendUint16(dst, InternSentinel)
			return binary.LittleEndian.AppendUint32(dst, id)
		}
	}
	if len(name) > MaxInternString {
		panic(fmt.Sprintf("parcel: action name of %d bytes exceeds wire limit %d", len(name), MaxInternString))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	return append(dst, name...)
}

// readActionRef parses one action reference, resolving table positions
// through t. A spelled-out name resolves no dispatch ID.
func readActionRef(src []byte, t DecodeTable) (name string, aid uint32, rest []byte, err error) {
	if len(src) < 2 {
		return "", NoAID, src, fmt.Errorf("short action ref")
	}
	tag := binary.LittleEndian.Uint16(src)
	src = src[2:]
	if tag == InternSentinel {
		if len(src) < 4 {
			return "", NoAID, src, fmt.Errorf("short interned action id")
		}
		id := binary.LittleEndian.Uint32(src)
		src = src[4:]
		if t == nil {
			return "", NoAID, src, fmt.Errorf("interned action %d without a peer table", id)
		}
		name, aid, ok := t.ActionOf(id)
		if !ok {
			return "", NoAID, src, fmt.Errorf("interned action %d outside peer table", id)
		}
		return name, aid, src, nil
	}
	n := int(tag)
	if len(src) < n {
		return "", NoAID, src, fmt.Errorf("action string truncated: want %d have %d", n, len(src))
	}
	return string(src[:n]), NoAID, src[n:], nil
}
