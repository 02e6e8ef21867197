// Package agas implements the ParalleX global name space: every first-class
// object — data, actions, LCOs, processes, and even hardware resources — has
// a global identifier that can be named from any locality. Objects move;
// names do not. Translation is computed, not cached: a home-based directory
// per locality answers for the names homed on this node, and a name homed
// elsewhere is routed toward the home locality its GID carries. What can
// go stale is a hint — a "moved" verdict another node taught this one (the
// model explicitly has no global coherence) — repaired by forwarding.
package agas

import (
	"encoding/binary"
	"fmt"
)

// Kind types a global name. The paper makes actions and hardware resources
// first-class nameable entities alongside data, so the kind is part of the
// identifier.
type Kind uint8

// Name kinds.
const (
	KindInvalid Kind = iota
	KindData
	KindAction
	KindLCO
	KindProcess
	KindThread
	KindHardware
	// KindReply names the one-shot reply slot of a split-phase call. The
	// name is addressable, not registered: it lives in no directory, its
	// home locality never changes, and the minting runtime alone gives its
	// Seq a meaning (see Locate, and the reply table in internal/core).
	KindReply
)

var kindNames = [...]string{"invalid", "data", "action", "lco", "process", "thread", "hardware", "reply"}

// String returns the kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Movable reports whether names of kind k may migrate. Hardware and reply
// names are bound to their home locality for life, so they pass no
// migration fence and the balancer never weighs them.
func (k Kind) Movable() bool { return k != KindHardware && k != KindReply }

// GID is a 128-bit global identifier. Home is the locality whose directory
// is authoritative for the object (a routing hint, not its current
// location). The zero GID is invalid.
type GID struct {
	Home uint32
	Kind Kind
	Seq  uint64
}

// Nil is the invalid zero GID.
var Nil GID

// IsNil reports whether g is the invalid zero GID.
func (g GID) IsNil() bool { return g == Nil }

// String renders the GID for logs: kind@home#seq.
func (g GID) String() string {
	if g.IsNil() {
		return "gid(nil)"
	}
	return fmt.Sprintf("%s@%d#%d", g.Kind, g.Home, g.Seq)
}

// GIDSize is the encoded size of a GID in bytes.
const GIDSize = 16

// Encode appends the 16-byte wire form of g to dst.
func (g GID) Encode(dst []byte) []byte {
	var buf [GIDSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], g.Home)
	buf[4] = byte(g.Kind)
	// bytes 5..7 reserved, zero
	binary.LittleEndian.PutUint64(buf[8:16], g.Seq)
	return append(dst, buf[:]...)
}

// DecodeGID reads a GID from the front of src, returning the remainder.
func DecodeGID(src []byte) (GID, []byte, error) {
	if len(src) < GIDSize {
		return Nil, src, fmt.Errorf("agas: short GID: %d bytes", len(src))
	}
	g := GID{
		Home: binary.LittleEndian.Uint32(src[0:4]),
		Kind: Kind(src[4]),
		Seq:  binary.LittleEndian.Uint64(src[8:16]),
	}
	return g, src[GIDSize:], nil
}
