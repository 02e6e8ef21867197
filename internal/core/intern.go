package core

import (
	"fmt"

	"repro/internal/parcel"
	"repro/internal/transport"
)

// Cross-node action interning. Spelling action names out on the wire
// costs a string allocation per parcel (plus one per continuation) on
// every receive. Instead, each node announces its dense action table —
// the registry snapshot taken when the transport starts — inside the
// transport handshake hello (see frames.go for its layout). Because the
// hello precedes every frame on a connection and is re-announced on
// reconnect, a receiver always holds the sender's table before the first
// parcel naming a table position arrives, with no extra round trips or
// ordering protocol.
//
// Actions registered after the transport started fall outside the
// announced prefix and are spelled out (the codec falls back per
// reference, see parcel.EncodeInterned).

// senderTable is the parcel.Table used when encoding toward a peer: it
// covers exactly the prefix of the local registry this node announced at
// transport start, so a position is meaningful to every peer that heard
// the announcement.
type senderTable struct {
	set *actionSet
	n   int
}

// IDOf reports the 0-based wire position of name within the announced
// prefix.
func (t *senderTable) IDOf(name string) (uint32, bool) {
	id, ok := t.set.byName[name] // 1-based dense ID
	if !ok || int(id) > t.n {
		return 0, false
	}
	return id - 1, true
}

// ActionOf is the decode half, unused on the sender side.
func (t *senderTable) ActionOf(uint32) (string, uint32, bool) { return "", parcel.NoAID, false }

// recvTable is the parcel.Table used when decoding a peer's parcel
// frames: position → the peer's announced name, pre-resolved to the local
// dense ID where the action is registered here too. Immutable once
// published, so decodes read it without locks.
type recvTable struct {
	names []string
	aids  []uint32
}

// IDOf is the encode half, unused on the receiver side.
func (t *recvTable) IDOf(string) (uint32, bool) { return 0, false }

// ActionOf resolves a received wire position.
func (t *recvTable) ActionOf(id uint32) (string, uint32, bool) {
	if int(id) >= len(t.names) {
		return "", parcel.NoAID, false
	}
	return t.names[id], t.aids[id], true
}

// onHello installs a peer's announcement, resolving each announced name
// against the local registry once so per-parcel decodes are pure slice
// reads. Handshakes repeat on reconnection; the last table wins, which is
// correct because a peer's announcement never changes within one process
// lifetime. A membership section from an unknown node is a join: it is
// admitted (transport, membership map, AGAS growth) before the intern
// table is stored, so by the time the joiner's first frame arrives the
// machine routes to it.
func (d *distState) onHello(from int, payload []byte) {
	if from < 0 || from >= transport.MaxJoinNodes {
		return
	}
	names, mh, err := parseHello(payload)
	if err != nil {
		d.rt.recordError(fmt.Errorf("core: bad hello from node %d: %w", from, err))
		return
	}
	if mh != nil && mh.node == from {
		d.onMemberHello(from, mh)
	}
	t := &recvTable{names: names, aids: make([]uint32, len(names))}
	for i, nm := range names {
		if _, aid, ok := d.rt.acts.lookup(nm); ok {
			t.aids[i] = aid
		} else {
			t.aids[i] = parcel.NoAID
		}
	}
	if ps := d.ensurePeer(from); ps != nil {
		ps.table.Store(t)
	}
}
