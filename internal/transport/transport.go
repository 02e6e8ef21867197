// Package transport moves opaque frames between the nodes of a
// multi-process ParalleX machine. A node is one OS process hosting a
// contiguous range of localities; the runtime layers parcel routing,
// distributed quiescence, and live object migration on top of the frame
// service defined here. Frames are opaque — the runtime's kinds (parcels,
// migration's payload pushes and directory commits among them, "moved"
// hints, drain probes) all ride the same service. A send is split-phase, like the
// parcel it carries: the transport copies the frame and returns, and
// delivery happens later — on TCP, one writer per lane carries whatever
// built up in one write.
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
// transport's poison mode (on under the debugpool build tag), which
// scribbles over the frame after the handler returns. Handlers run on transport goroutines and must not
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
	// Send hands frame to the transport for delivery to the given node
	// and returns without waiting for the wire; the transport copies the
	// frame, so the caller may reuse its buffer at once. An error means
	// the frame was not taken — the transport is closed, the node is
	// bad, there is no address for it, or the frame is too large — and
	// will NOT reach the peer's handler: the runtime's quiescence
	// accounting books a refused parcel as returned to its sender and
	// would count it twice if the peer received it anyway. A frame once
	// taken arrives in order per node pair, at most once, and is dropped
	// only if its peer is unreachable or the transport closes. Send never
	// waits, so a receive handler may call it.
	Send(node int, frame []byte) error
	// Close releases the transport. A frame already taken may still be
	// written on a connection that is up, within a bounded time; anything
	// else in flight is dropped. Close is idempotent; after it returns no
	// handler calls are made.
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
	// contract as Send: an error means the frame was not taken (a lane
	// outside [0, Lanes()) is one more reason). Unlike Send it may wait
	// for room when the lane holds a bounded backlog, so a receive
	// handler must not call it.
	SendLane(node, lane int, frame []byte) error
	// TrySendLane is SendLane that never waits: where SendLane would wait
	// for room it refuses the frame with ErrLaneFull. A receive handler
	// may call it.
	TrySendLane(node, lane int, frame []byte) error
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

// LossTransport is optionally implemented by transports that can drop a
// frame they have taken, because its peer could not be reached. The
// runtime turns the report into a death verdict for that peer, which
// releases the dropped frames from its quiescence accounting and fails
// the calls and migrations waiting on the peer.
type LossTransport interface {
	Transport
	// SetUnreachableHandler installs the receiver told that frames taken
	// for node were dropped because node could not be reached. It runs on
	// a transport goroutine and must not block.
	SetUnreachableHandler(h func(node int))
}

// MaxJoinNodes bounds the node ID a joining peer may announce — a sanity
// cap so a corrupt handshake cannot force a giant peer-table allocation.
const MaxJoinNodes = 4096

// MaxHello bounds a handshake hello payload; a peer announcing a larger
// one is treated as corrupt and disconnected.
const MaxHello = 1 << 20

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrLaneFull is TrySendLane's refusal of a frame for a lane that holds
// its bound of unwritten bytes. The frame was not taken.
var ErrLaneFull = errors.New("transport: lane full")

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
