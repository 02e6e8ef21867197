// Package transport moves opaque frames between the nodes of a
// multi-process ParalleX machine. A node is one OS process hosting a
// contiguous range of localities; the runtime layers parcel routing,
// distributed quiescence, and live object migration on top of the frame
// service defined here. Frames are opaque — the runtime's kinds (parcels,
// "moved" hints, MIGRATE payload pushes, directory commits, drain
// probes) all ride the same service, so a
// migration payload coalesces into the TCP transport's group-commit
// batches exactly as parcels do.
//
// Two implementations are provided: an in-process loopback fabric for
// deterministic tests (NewFabric) and a TCP transport carrying
// length-framed streams with a locality-range handshake (NewTCP).
package transport

import (
	"errors"
	"fmt"
)

// Handler consumes one received frame. from is the sending node's ID. The
// frame slice is valid only until the handler returns — transports reuse
// their read buffers, and the TCP transport's alias-decode path hands the
// handler a sub-slice of the connection read buffer itself — so a handler
// must copy any bytes it retains. Violations can be caught with the TCP
// transport's poison mode (TCPConfig.PoisonAliasedReads, default on under
// the debugpool build tag), which scribbles over the frame after the
// handler returns. Handlers run on transport goroutines and must not
// block indefinitely.
type Handler func(from int, frame []byte)

// Transport is the frame service joining the nodes of one machine.
type Transport interface {
	// Self reports this node's ID.
	Self() int
	// Nodes reports the machine's node count.
	Nodes() int
	// SetHandler installs the receive handler. It must be called exactly
	// once, before Start.
	SetHandler(h Handler)
	// SetHello installs the opaque payload announced to every peer when
	// two nodes connect. The runtime announces its action-interning table
	// and membership in it: because the payload rides the connection
	// handshake, it reaches the peer before any frame sent over that
	// connection, re-announcing automatically on reconnect. It must be
	// called before Start; nil announces an empty payload.
	SetHello(payload []byte)
	// SetHelloHandler installs the receiver for peers' hello payloads. The
	// handler runs before any frame from that peer's connection is
	// delivered, may run again on reconnection, and may be called
	// concurrently for different peers. It must be set before Start.
	SetHelloHandler(h func(node int, payload []byte))
	// Start begins receiving. Sends before Start may fail.
	Start() error
	// Send delivers frame to the given node. Delivery is asynchronous,
	// ordered per node pair, and at-most-once: an error means the frame
	// will NOT reach the peer's handler. Implementations must uphold this
	// by dropping the connection mid-frame on a failed write rather than
	// ever completing a frame after reporting failure — the runtime's
	// quiescence accounting books a refused parcel as returned to its
	// sender and would count it twice if the peer received it anyway.
	Send(node int, frame []byte) error
	// Close releases the transport. In-flight frames may be dropped.
	// Close is idempotent; after it returns no handler calls are made.
	Close() error
}

// LaneTransport is optionally implemented by transports that shard each
// peer pair across several independent connections ("lanes"). Lanes
// preserve ordering only within a lane: two frames sent on the same
// (node, lane) arrive in send order, frames on different lanes may not.
// The runtime exploits this by affinity-hashing parcels on their
// destination GID — per-object ordering is preserved while independent
// objects stop queueing behind each other — and by keeping control
// traffic (membership beats, drain probes, migration RPCs) on lane 0, so a
// transport without lane support behaves identically via plain Send.
type LaneTransport interface {
	Transport
	// Lanes reports how many lanes connect this node to each peer; always
	// >= 1. Plain Send is equivalent to SendLane on lane 0.
	Lanes() int
	// SendLane delivers frame to node on the given lane, under the same
	// at-most-once, error-means-non-delivery contract as Send. lane must
	// be in [0, Lanes()).
	SendLane(node, lane int, frame []byte) error
}

// MemberTransport is optionally implemented by transports whose machine
// can grow after Start: a joining node's handshake is accepted even when
// its ID is beyond the configured peer table, and the membership layer
// completes the admission by teaching the transport the joiner's dial
// address with AddPeer. Transports without membership support keep their
// fixed machine size.
type MemberTransport interface {
	Transport
	// AddPeer records (or updates) the dial address and announced
	// locality range of node, growing the peer table as needed. Safe to
	// call after Start; concurrent with sends.
	AddPeer(node int, addr string, lo, hi int) error
}

// MaxJoinNodes bounds the node ID a joining peer may announce — a sanity
// cap so a corrupt handshake cannot force a giant peer-table allocation.
const MaxJoinNodes = 4096

// MaxHello bounds a handshake hello payload; a peer announcing a larger
// one is treated as corrupt and disconnected.
const MaxHello = 1 << 20

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// MaxFrame bounds a frame's encoded size; a peer announcing a larger frame
// is treated as corrupt and disconnected.
const MaxFrame = 16 << 20

func checkNode(t Transport, node int) error {
	if node < 0 || node >= t.Nodes() {
		return fmt.Errorf("transport: node %d outside machine [0,%d)", node, t.Nodes())
	}
	if node == t.Self() {
		return fmt.Errorf("transport: node %d sending to itself", node)
	}
	return nil
}
