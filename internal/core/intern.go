package core

import (
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Cross-node action interning. Spelling action names out on the wire
// costs a string allocation per parcel (plus one per continuation) on
// every receive. Instead, each node announces its dense action table —
// the registry snapshot taken when the transport starts — inside the
// transport handshake hello (internal/wire holds its layout and both
// halves of the table).
//
// Actions registered after the transport started fall outside the
// announced prefix and are spelled out (the codec falls back per
// reference, see parcel.EncodeInterned).

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
	names, mh, err := wire.ParseHello(payload)
	if err != nil {
		d.rt.recordError(fmt.Errorf("core: bad hello from node %d: %w", from, err))
		return
	}
	if mh != nil && mh.Node == from {
		d.onMemberHello(from, mh)
	}
	t := wire.NewRecvTable(names, func(name string) uint32 {
		_, aid, _ := d.rt.acts.lookup(name) // parcel.NoAID when not registered here
		return aid
	})
	if ps := d.ensurePeer(from); ps != nil {
		ps.table.Store(t)
	}
}
