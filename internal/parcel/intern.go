package parcel

import (
	"encoding/binary"
	"fmt"
)

// Interned wire form. The plain format (Encode/Decode) spells every action
// name out as a length-prefixed string — one string allocation per parcel
// plus one per continuation on every decode. Peers that have exchanged
// action tables (see the core distributed layer: the table rides the
// transport handshake hello) instead refer to actions by their dense table
// position, and the decoder hands back the interned name string it already
// holds: the steady-state decode allocates nothing.
//
// Every action reference degrades independently: a name the sender has not
// announced (registered after the table was exchanged, or past the
// announced prefix) is encoded as a string exactly as in the plain format.
// A parcel may therefore mix interned and spelled-out references.
//
// Layout: identical to the plain format except each action reference is
//
//	u16 tag | payload
//
// where tag == InternSentinel means payload is a u32 table position, and
// any other tag is a string length followed by that many bytes.

// InternSentinel is the u16 tag marking an interned (u32 table position)
// action reference. String-form action names in the interned format are
// capped one byte short of it so the two cases never collide.
const InternSentinel = 0xFFFF

// MaxInternString bounds action-name length in the interned wire form.
const MaxInternString = InternSentinel - 1

// Table resolves action names to dense wire positions and back. The
// sender and receiver sides are asymmetric: IDOf consults the table the
// local node announced to the peer, ActionOf consults the table the peer
// announced to us.
type Table interface {
	// IDOf returns the wire position for name, when the name is inside the
	// announced prefix.
	IDOf(name string) (uint32, bool)
	// ActionOf resolves a received wire position to the action's name and
	// the local dispatch ID (NoAID when the action is known to the peer
	// but not registered locally). ok is false for positions outside the
	// peer's announced table — a corrupt or misordered frame.
	ActionOf(id uint32) (name string, aid uint32, ok bool)
}

// EncodeInterned appends the interned wire form of p to dst, referring to
// actions by table position where t knows them and by string otherwise.
// It panics on the same wire-limit violations as Encode, plus on action
// names too long for the interned string fallback — check InternEncodable
// first for names of unchecked origin (registration already bounds
// registered names).
func (p *Parcel) EncodeInterned(dst []byte, t Table) []byte {
	return p.encode(dst, true, t)
}

// InternEncodable reports whether every action reference fits the
// interned wire form. Only unregistrable names fail — the plain format
// admits one extra byte of action-name length (MaxString) that the
// interned form reserves as its sentinel — so callers fall back to the
// plain Encode for such parcels instead of panicking.
func (p *Parcel) InternEncodable() bool {
	if len(p.Action) > MaxInternString {
		return false
	}
	for _, c := range p.Cont {
		if len(c.Action) > MaxInternString {
			return false
		}
	}
	return true
}

// DecodePooledInterned parses an interned-form parcel into a pooled
// parcel, resolving table positions through t. Release the parcel when
// dispatch completes.
func DecodePooledInterned(src []byte, t Table) (*Parcel, []byte, error) {
	p := blank()
	rest, err := DecodeIntoInterned(p, src, t)
	if err != nil {
		Release(p)
		return nil, rest, err
	}
	return p, rest, nil
}

// DecodeIntoInterned is DecodeInto for the interned wire form. The
// parcel's AID is set for interned references resolved by t, so dispatch
// can index the action table directly.
func DecodeIntoInterned(p *Parcel, src []byte, t Table) ([]byte, error) {
	return decodeInto(p, src, true, t, false)
}

// appendActionRef writes one action reference: interned position when the
// table covers the name, string form otherwise.
func appendActionRef(dst []byte, name string, t Table) []byte {
	if t != nil {
		if id, ok := t.IDOf(name); ok {
			dst = binary.LittleEndian.AppendUint16(dst, InternSentinel)
			return binary.LittleEndian.AppendUint32(dst, id)
		}
	}
	if len(name) > MaxInternString {
		panic(fmt.Sprintf("parcel: action name of %d bytes exceeds interned wire limit %d", len(name), MaxInternString))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	return append(dst, name...)
}

// readActionRef parses one action reference, resolving interned positions
// through t.
func readActionRef(src []byte, t Table) (name string, aid uint32, rest []byte, err error) {
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
