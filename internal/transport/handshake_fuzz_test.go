package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLaneHandshake drives readHandshake with arbitrary bytes. The
// invariants under attack: no panic, no giant allocation from a corrupt
// hello length, every version but this build's own rejected, and, on
// accepted headers, a node and lane within bounds — a malformed lane
// announcement must be rejected, never clamped or passed through, or it
// could cross-wire two peers' ordered streams.
func FuzzLaneHandshake(f *testing.F) {
	seed := func(version uint16, node, lo, hi uint32, hello []byte, lane uint16) []byte {
		b := binary.LittleEndian.AppendUint32(nil, hsMagic)
		b = binary.LittleEndian.AppendUint16(b, version)
		b = binary.LittleEndian.AppendUint32(b, node)
		b = binary.LittleEndian.AppendUint32(b, lo)
		b = binary.LittleEndian.AppendUint32(b, hi)
		b = binary.LittleEndian.AppendUint16(b, lane)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(hello)))
		return append(b, hello...)
	}
	f.Add(seed(hsVersion, 1, 0, 2, []byte("hello"), 3))
	f.Add(seed(hsVersion, 1, 0, 2, nil, 0))
	f.Add(seed(hsVersion, 1, 0, 2, nil, MaxLanes))           // lane out of bounds
	f.Add(seed(hsVersion, 0, 0, 2, nil, 0))                  // self node
	f.Add(seed(hsVersion, MaxJoinNodes, 0, 2, nil, 0))       // node out of bounds
	f.Add(seed(hsVersion, 2, 5, 3, nil, 1))                  // inverted range
	f.Add(seed(hsVersion-1, 1, 0, 2, []byte("hello"), 0))    // the previous version
	f.Add(seed(hsVersion+1, 1, 0, 2, nil, 0))                // a future version
	f.Add(seed(hsVersion, 1, 0, 2, []byte("hello"), 0)[:26]) // hello cut short
	f.Add([]byte{0x50, 0x58, 0x54, 0x50})                    // magic only, truncated
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))          // wrong magic

	f.Fuzz(func(t *testing.T, data []byte) {
		// Fresh state per input keeps crashers self-contained: growPeers
		// from one accepted joiner must not change the next input's
		// verdict. Ranges stay unconfigured so acceptance depends on the
		// bytes alone (the range cross-check has its own unit test).
		tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
			Peers: make([]string, 3), DisableSameHost: true})
		if err != nil {
			t.Skip("listen unavailable")
		}
		defer tt.Close()
		node, hello, lane, err := tt.readHandshake(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint16(data[4:6]); v != hsVersion {
			t.Fatalf("accepted handshake version %d, this build speaks only %d", v, hsVersion)
		}
		if node <= 0 || node >= MaxJoinNodes {
			t.Fatalf("accepted node %d outside (0,%d)", node, MaxJoinNodes)
		}
		if lane < 0 || lane >= MaxLanes {
			t.Fatalf("accepted lane %d outside [0,%d)", lane, MaxLanes)
		}
		if len(hello) > MaxHello {
			t.Fatalf("accepted %d-byte hello beyond limit %d", len(hello), MaxHello)
		}
		// Our own header for the accepted lane must parse back to it.
		echo := tt.handshakeBytes(lane)
		binary.LittleEndian.PutUint32(echo[6:10], 1) // node 0 is self, which readHandshake rejects
		if _, _, lane2, err := tt.readHandshake(bytes.NewReader(echo)); err != nil || lane2 != lane {
			t.Fatalf("own header for lane %d parsed back as lane %d, err %v", lane, lane2, err)
		}
	})
}
