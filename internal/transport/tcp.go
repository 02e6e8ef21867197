package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig parameterizes one node's TCP transport.
type TCPConfig struct {
	// Self is this node's ID.
	Self int
	// Listen is the address this node accepts peer connections on, e.g.
	// "127.0.0.1:0". The bound address is available from Addr.
	Listen string
	// Peers maps node ID to dial address. Peers[Self] is ignored. It may be
	// left nil at construction and supplied via SetPeers before Start when
	// dynamic ports are in play.
	Peers []string
	// Ranges optionally maps node ID to its hosted locality range
	// {lo, hi} (half-open). When set, the handshake cross-checks each
	// peer's announced range and rejects mismatched machines.
	Ranges [][2]int
	// Lanes is the number of independent connections maintained to each
	// peer. Frames sent on different lanes ride different TCP streams, so
	// independent traffic stops queueing behind one stream's head-of-line;
	// ordering is preserved within a lane only. Control traffic (plain
	// Send) rides lane 0. Default 1; capped at MaxLanes.
	Lanes int
	// DialAttempts bounds a lane's first connection attempts; peers
	// commonly start in arbitrary order, so dialing retries. Default 40.
	DialAttempts int
	// DialBackoff is the initial retry delay, doubling per attempt up to
	// 500ms. Default 25ms.
	DialBackoff time.Duration
	// HandshakeTimeout bounds the handshake exchange. Default 5s.
	HandshakeTimeout time.Duration
	// DisableSameHost turns off the same-host fabric: peers are always
	// dialed over TCP even when a Unix-domain listener advertises that
	// they share this host. See shm.go.
	DisableSameHost bool
	// poisonAliasedReads scribbles 0xdd over every aliased frame after
	// its handler returns, so a handler that illegally retained the slice
	// observes garbage (and, under -race, a write/read race) instead of
	// silently reading recycled bytes. The debugpool build tag turns it on;
	// otherwise only an in-package test does.
	poisonAliasedReads bool
}

// MaxLanes caps TCPConfig.Lanes (and the lane index a handshake may
// announce — a corrupt hello must not imply an absurd connection count).
const MaxLanes = 16

// laneBound bounds the bytes a lane holds unwritten: SendLane waits while
// a lane holds this much and TrySendLane refuses (Send never waits). It is
// soft by one frame, so a larger frame passes once the lane drains. 256KB
// keeps 32KB-frame floods streaming without letting one hot lane queue
// megabytes.
const laneBound = 256 << 10

// readBufferBytes sizes each inbound connection's read buffer. Frames that
// fit it are delivered as aliased sub-slices of it (zero receive copies);
// larger frames take the copy path. It also bounds the alias path's hidden
// cost: a frame that straddles the buffer's end is slid to the front before
// it can be peeked contiguously, so the buffer is a healthy multiple of the
// common frame size.
const readBufferBytes = 256 << 10

// closeFlushTimeout bounds the last write Close lets each lane make: the
// frames it already holds, on a connection already up.
const closeFlushTimeout = time.Second

func (c *TCPConfig) fill() {
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.Lanes > MaxLanes {
		c.Lanes = MaxLanes
	}
	if c.DialAttempts <= 0 {
		c.DialAttempts = 40
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 25 * time.Millisecond
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if !c.poisonAliasedReads {
		c.poisonAliasedReads = poisonAliasDefault
	}
}

// TCP carries frames between nodes as length-prefixed records on TCP
// streams (or Unix-domain streams when peers share a host — see shm.go).
// Each node listens for its peers and keeps Lanes outbound (send-only)
// connections per peer.
//
// Senders enqueue and lanes write. Send and SendLane copy the frame, behind
// its length, onto the lane's pending buffer and return. Each lane has one
// writer goroutine, started by its first frame, which owns the connection:
// it dials, retrying so peers may start in any order, and writes
// everything that built up during its previous write as one write. A lone
// frame leaves at once and a burst leaves together. SendLane waits while
// the lane holds laneBound unwritten bytes and TrySendLane refuses; Send
// never waits. A read goroutine may call Send and TrySendLane.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener
	// shm is the same-host Unix-domain listener (nil when disabled or
	// unavailable); shmConns counts outbound connections that took the
	// same-host path instead of TCP.
	shm      net.Listener
	shmConns atomic.Uint64

	// selfRange is this node's announced locality range, captured at
	// construction so the handshake encoder never races peer-table growth.
	selfRange [2]int
	hasRange  bool

	mu            sync.Mutex
	handler       Handler
	hello         []byte
	onHello       func(node int, payload []byte)
	onUnreachable func(node int)
	started       bool
	// closed is set by Close, under mu; readers load it without mu, once
	// per frame, so no frame is delivered once Close has begun.
	closed atomic.Bool
	// quit is cancelled by Close: it aborts a writer's dial, handshake
	// and backoff at once.
	quit    context.Context
	cancel  context.CancelFunc
	inbound map[net.Conn]struct{}
	streams map[[2]int]inStream // the latest reader of each (node, lane)

	peers []*tcpPeer
	wg    sync.WaitGroup // accept loops, readers and lane writers
}

// inStream is the reader of one peer lane's inbound connection; done is
// closed when it exits.
type inStream struct {
	conn net.Conn
	done chan struct{}
}

// tcpPeer is one remote node: its lane set. Lane 0 carries control
// traffic (plain Send); the runtime spreads parcel traffic across the
// rest by destination-GID affinity.
type tcpPeer struct {
	lanes []*tcpLane
}

// tcpLane is one (peer, lane) connection: the frames senders have handed
// it, and the state its one writer goroutine shares with them.
type tcpLane struct {
	mu   sync.Mutex
	wake *sync.Cond // wakes the writer: frames pending, or closing
	room *sync.Cond // wakes SendLane callers waiting at laneBound

	// pending holds copies of the taken frames, each behind its 4-byte
	// length; queued counts them. The writer swaps in the buffer of its
	// previous write when it takes pending: two buffers serve every round.
	pending []byte
	queued  int

	conn    net.Conn // the writer's latest connection; Close bounds its last write
	running bool     // the writer goroutine has started
	closing bool     // Close has begun: no more frames, no more dials

	// Writer activity, guarded by mu (see TCP.BatchStats).
	writes, frames, dropped, backpressured uint64
}

// NewTCP binds the node's listen address and returns the transport.
// Receiving begins at Start. Unless DisableSameHost is set, a companion
// Unix-domain listener is bound at a path derived from the TCP port, so
// colocated peers can reach this node without the loopback TCP tax.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg.fill()
	n := len(cfg.Peers)
	if n == 0 && cfg.Ranges != nil {
		n = len(cfg.Ranges)
	}
	if cfg.Self < 0 || (n > 0 && cfg.Self >= n) {
		return nil, fmt.Errorf("transport: node %d outside machine [0,%d)", cfg.Self, n)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCP{cfg: cfg, ln: ln,
		inbound: make(map[net.Conn]struct{}), streams: make(map[[2]int]inStream)}
	t.quit, t.cancel = context.WithCancel(context.Background())
	if !cfg.DisableSameHost {
		// Best effort: a host where the socket path cannot be bound (odd
		// TempDir permissions, path collisions) simply stays TCP-only.
		t.shm, _ = listenSameHost(ln.Addr())
	}
	if cfg.Ranges != nil && cfg.Self < len(cfg.Ranges) {
		t.selfRange = cfg.Ranges[cfg.Self]
		t.hasRange = true
	}
	t.setPeerCount(n)
	return t, nil
}

func newTCPPeer(lanes int) *tcpPeer {
	p := &tcpPeer{lanes: make([]*tcpLane, lanes)}
	for i := range p.lanes {
		l := &tcpLane{}
		l.wake = sync.NewCond(&l.mu)
		l.room = sync.NewCond(&l.mu)
		p.lanes[i] = l
	}
	return p
}

func (t *TCP) setPeerCount(n int) {
	t.peers = make([]*tcpPeer, n)
	for i := range t.peers {
		t.peers[i] = newTCPPeer(t.cfg.Lanes)
	}
}

// growPeers extends the peer table to hold node, copying the slice headers
// so concurrent readers of the old snapshot stay consistent. Callers hold
// t.mu.
func (t *TCP) growPeers(node int) {
	if node < len(t.peers) {
		return
	}
	peers := make([]*tcpPeer, node+1)
	copy(peers, t.peers)
	for i := len(t.peers); i <= node; i++ {
		peers[i] = newTCPPeer(t.cfg.Lanes)
	}
	t.peers = peers
	for len(t.cfg.Peers) <= node {
		t.cfg.Peers = append(t.cfg.Peers, "")
	}
	if t.cfg.Ranges != nil {
		for len(t.cfg.Ranges) <= node {
			t.cfg.Ranges = append(t.cfg.Ranges, [2]int{})
		}
	}
}

// AddPeer records node's dial address and announced locality range,
// growing the peer table when the node is new (MemberTransport). The
// joining peer becomes sendable immediately; its lanes dial on their first
// frame.
func (t *TCP) AddPeer(node int, addr string, lo, hi int) error {
	if node < 0 || node >= MaxJoinNodes {
		return fmt.Errorf("transport: joining node %d outside [0,%d)", node, MaxJoinNodes)
	}
	if node == t.cfg.Self {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.growPeers(node)
	if addr != "" {
		t.cfg.Peers[node] = addr
	}
	if t.cfg.Ranges != nil && hi > lo {
		t.cfg.Ranges[node] = [2]int{lo, hi}
	}
	return nil
}

// Addr reports the bound listen address (useful with "127.0.0.1:0").
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// SetPeers installs the node→address table; required before Start when the
// table was not known at construction.
func (t *TCP) SetPeers(peers []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("transport: SetPeers after Start")
	}
	t.cfg.Peers = peers
	if len(t.peers) != len(peers) {
		t.setPeerCount(len(peers))
	}
}

func (t *TCP) Self() int { return t.cfg.Self }

func (t *TCP) Nodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.peers)
}

// Lanes reports the configured lane count (LaneTransport).
func (t *TCP) Lanes() int { return t.cfg.Lanes }

func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handler != nil {
		panic("transport: handler already set")
	}
	t.handler = h
}

// SetHello installs the payload exchanged inside every connection
// handshake.
func (t *TCP) SetHello(payload []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("transport: SetHello after Start")
	}
	if len(payload) > MaxHello {
		panic(fmt.Sprintf("transport: hello payload of %d bytes exceeds limit %d", len(payload), MaxHello))
	}
	t.hello = payload
}

// SetHelloHandler installs the receiver for peer hello payloads. It runs
// on connection goroutines, once per completed handshake, before any frame
// from that connection.
func (t *TCP) SetHelloHandler(h func(node int, payload []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started {
		panic("transport: SetHelloHandler after Start")
	}
	t.onHello = h
}

// SetUnreachableHandler installs the receiver told that a lane dropped
// frames because node could not be reached (LossTransport). It runs on the
// lane's writer goroutine and must not block.
func (t *TCP) SetUnreachableHandler(h func(node int)) {
	t.mu.Lock()
	t.onUnreachable = h
	t.mu.Unlock()
}

// deliverHello hands a peer's handshake payload to the hello handler.
func (t *TCP) deliverHello(node int, payload []byte) {
	t.mu.Lock()
	h := t.onHello
	t.mu.Unlock()
	if h != nil {
		h(node, payload)
	}
}

// Start begins accepting peer connections.
func (t *TCP) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if t.handler == nil {
		return fmt.Errorf("transport: node %d started without a handler", t.cfg.Self)
	}
	if len(t.cfg.Peers) == 0 {
		return fmt.Errorf("transport: node %d started without a peer table", t.cfg.Self)
	}
	if t.started {
		return nil
	}
	t.started = true
	t.wg.Add(1)
	go t.acceptLoop(t.ln)
	if t.shm != nil {
		t.wg.Add(1)
		go t.acceptLoop(t.shm)
	}
	return nil
}

// Handshake wire form, the one layout this transport speaks:
//
//	u32 magic | u16 version | u32 node | u32 lo | u32 hi | u16 lane |
//	u32 hello length | hello payload
//
// lo, hi is the sender's hosted locality range. The lane index names which
// of the dialer's connections this one is, so a sharded dialer's streams
// stay distinguishable and a malformed lane announcement is rejected
// before it can cross-wire two peers. The hello payload is opaque to the
// transport (the runtime announces its action table and membership in
// it); because it travels inside the handshake it precedes every frame on
// the connection and is re-announced on reconnect. A peer speaking any
// other version is refused: one build, one format.
const (
	hsMagic    = 0x50585450 // "PXTP"
	hsVersion  = 4
	hsHeadSize = 4 + 2 + 4 + 4 + 4 + 2 + 4 // magic..hello length
)

// errHandshakeVersion marks the refusal of a peer built with another
// handshake layout.
var errHandshakeVersion = errors.New("transport: handshake version mismatch")

// handshakeBytes encodes this node's header for the given lane.
func (t *TCP) handshakeBytes(lane int) []byte {
	var lo, hi uint32
	if t.hasRange {
		lo = uint32(t.selfRange[0])
		hi = uint32(t.selfRange[1])
	}
	t.mu.Lock()
	hello := t.hello
	t.mu.Unlock()
	buf := make([]byte, 0, hsHeadSize+len(hello))
	buf = binary.LittleEndian.AppendUint32(buf, hsMagic)
	buf = binary.LittleEndian.AppendUint16(buf, hsVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.Self))
	buf = binary.LittleEndian.AppendUint32(buf, lo)
	buf = binary.LittleEndian.AppendUint32(buf, hi)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(lane))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hello)))
	return append(buf, hello...)
}

// readHandshake parses and validates a peer header, returning the peer's
// node ID, its hello payload, and the lane this connection carries.
func (t *TCP) readHandshake(r io.Reader) (node int, hello []byte, lane int, err error) {
	var buf [hsHeadSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: handshake read: %w", err)
	}
	if m := binary.LittleEndian.Uint32(buf[0:4]); m != hsMagic {
		return 0, nil, 0, fmt.Errorf("transport: bad handshake magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != hsVersion {
		return 0, nil, 0, fmt.Errorf("%w: peer speaks handshake version %d, this node speaks %d", errHandshakeVersion, v, hsVersion)
	}
	node = int(binary.LittleEndian.Uint32(buf[6:10]))
	if node < 0 || node >= MaxJoinNodes || node == t.cfg.Self {
		return 0, nil, 0, fmt.Errorf("transport: handshake from invalid node %d", node)
	}
	lo := int(binary.LittleEndian.Uint32(buf[10:14]))
	hi := int(binary.LittleEndian.Uint32(buf[14:18]))
	t.mu.Lock()
	known := node < len(t.peers)
	if !known {
		// A node beyond the configured table is a joiner: admit it and
		// record its announced range. Its dial address arrives in the
		// hello's membership section (AddPeer).
		t.growPeers(node)
		if t.cfg.Ranges != nil && hi > lo {
			t.cfg.Ranges[node] = [2]int{lo, hi}
		}
	}
	var want [2]int
	checkRange := known && t.cfg.Ranges != nil && node < len(t.cfg.Ranges)
	if checkRange {
		want = t.cfg.Ranges[node]
	}
	t.mu.Unlock()
	// Cross-check only ranges we were configured with (hi > lo): a slot
	// grown by an earlier join holds the joiner's own announcement.
	if checkRange && want[1] > want[0] && (lo != want[0] || hi != want[1]) {
		return 0, nil, 0, fmt.Errorf("transport: node %d announced localities [%d,%d), want [%d,%d)",
			node, lo, hi, want[0], want[1])
	}
	lane = int(binary.LittleEndian.Uint16(buf[18:20]))
	if lane >= MaxLanes {
		// A corrupt lane announcement is rejected outright rather than
		// clamped: accepting it could cross-wire two peers' orderings.
		return 0, nil, 0, fmt.Errorf("transport: node %d announced lane %d, limit %d", node, lane, MaxLanes)
	}
	n := binary.LittleEndian.Uint32(buf[20:24])
	if n > MaxHello {
		return 0, nil, 0, fmt.Errorf("transport: node %d announced a %d-byte hello, limit %d", node, n, MaxHello)
	}
	if n > 0 {
		hello = make([]byte, n)
		if _, err := io.ReadFull(r, hello); err != nil {
			return 0, nil, 0, fmt.Errorf("transport: handshake hello read: %w", err)
		}
	}
	return node, hello, lane, nil
}

func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// serveConn handles one inbound (receive-only) connection: handshake
// exchange, then a frame-read loop feeding the handler. Frames that fit
// the connection read buffer are delivered as aliased sub-slices of it —
// zero copies between the socket and the handler, legal under the Handler
// copy-what-you-retain contract; frames larger than the buffer are copied.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	br := bufio.NewReaderSize(conn, readBufferBytes)
	from, hello, lane, err := t.readHandshake(br)
	if err != nil {
		if errors.Is(err, errHandshakeVersion) {
			// Answer before hanging up: our header tells the dialer which
			// build is the odd one out.
			conn.Write(t.handshakeBytes(0))
		}
		return
	}
	if _, err := conn.Write(t.handshakeBytes(0)); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	// A redialed lane's new connection must not overtake what is still
	// buffered on the one it replaces: wait for that reader to drain (it
	// ends at the torn frame), cutting it after HandshakeTimeout.
	key, done := [2]int{from, lane}, make(chan struct{})
	defer close(done)
	t.mu.Lock()
	prev := t.streams[key]
	t.streams[key] = inStream{conn, done}
	t.mu.Unlock()
	if prev.done != nil {
		select {
		case <-prev.done:
		case <-time.After(t.cfg.HandshakeTimeout):
			prev.conn.Close()
			<-prev.done
		}
	}
	// The hello is delivered before any frame from this connection: frames
	// that depend on it (interned parcels) decode against it in order.
	t.deliverHello(from, hello)
	// The handler is set once, before Start, so one read serves the
	// connection.
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	var lenBuf [4]byte
	// The copy-path read buffer, grown to the largest copied frame seen.
	var frame []byte
	poison := t.cfg.poisonAliasedReads
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			return // corrupt stream; drop the connection
		}
		var body []byte
		aliased := int(n) <= br.Size()
		if aliased {
			// Alias decode: the frame is a window into the bufio buffer.
			// Peek fills the buffer without copying out of it; Discard
			// after the handler returns releases the window.
			body, err = br.Peek(int(n))
			if err != nil {
				return
			}
		} else {
			if uint32(cap(frame)) < n {
				frame = make([]byte, n)
			}
			frame = frame[:n]
			if _, err := io.ReadFull(br, frame); err != nil {
				return
			}
			body = frame
		}
		if t.closed.Load() {
			return
		}
		h(from, body)
		if aliased {
			if poison {
				// A handler that retained the slice now reads 0xdd — and
				// under -race, the scribble itself flags the violator.
				for i := range body {
					body[i] = 0xdd
				}
			}
			br.Discard(int(n))
		} else if cap(frame) > 64<<10 {
			// Don't let one jumbo frame (a migration payload can reach
			// MaxFrame = 16MB) pin its buffer for the connection's
			// lifetime; steady-state parcels are a few hundred bytes.
			frame = nil
		}
	}
}

// What a send does when its lane holds laneBound unwritten bytes.
type atBound int

const (
	overfill   atBound = iota // take the frame anyway (Send)
	waitRoom                  // wait for the writer to make room (SendLane)
	refuseFull                // refuse the frame with ErrLaneFull (TrySendLane)
)

// Send delivers frame to node on lane 0. It never waits: the frame is
// copied onto the lane and Send returns, whatever the lane holds.
func (t *TCP) Send(node int, frame []byte) error {
	return t.send(node, 0, frame, overfill)
}

// SendLane delivers frame to node on the given lane (LaneTransport). The
// frame is copied onto the lane, so the caller may reuse its buffer when
// SendLane returns; while the lane holds laneBound unwritten bytes,
// SendLane first waits for its writer to take them.
func (t *TCP) SendLane(node, lane int, frame []byte) error {
	return t.send(node, lane, frame, waitRoom)
}

// TrySendLane is SendLane that refuses the frame with ErrLaneFull where
// SendLane would wait (LaneTransport).
func (t *TCP) TrySendLane(node, lane int, frame []byte) error {
	return t.send(node, lane, frame, refuseFull)
}

// send takes one frame onto a lane, doing what full says when the lane is
// at laneBound, and starts the lane's writer on its first frame.
func (t *TCP) send(node, lane int, frame []byte, full atBound) error {
	if err := checkNode(t, node); err != nil {
		return err
	}
	if lane < 0 || lane >= t.cfg.Lanes {
		return fmt.Errorf("transport: lane %d outside [0,%d)", lane, t.cfg.Lanes)
	}
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(frame), MaxFrame)
	}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return ErrClosed
	}
	l := t.peers[node].lanes[lane]
	addr := t.peerAddr(node)
	t.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("transport: no address for node %d", node)
	}

	l.mu.Lock()
	if full != overfill && len(l.pending) >= laneBound && !l.closing {
		l.backpressured++
		if full == refuseFull {
			l.mu.Unlock()
			return ErrLaneFull
		}
		for len(l.pending) >= laneBound && !l.closing {
			l.room.Wait()
		}
	}
	if l.closing {
		l.mu.Unlock()
		return ErrClosed
	}
	l.pending = binary.LittleEndian.AppendUint32(l.pending, uint32(len(frame)))
	l.pending = append(l.pending, frame...)
	l.queued++
	if !l.running {
		l.running = true
		t.wg.Add(1)
		go t.writeLane(l, node, lane)
	}
	l.wake.Signal()
	l.mu.Unlock()
	return nil
}

// peerAddr reports node's dial address, "" when none is known. Callers
// hold t.mu.
func (t *TCP) peerAddr(node int) string {
	if node < len(t.cfg.Peers) {
		return t.cfg.Peers[node]
	}
	return ""
}

// writeLane is a lane's writer. Each round it takes everything queued and
// writes it in one call, dialing first when the lane has no connection. A
// failed write closes the connection mid-frame, so the peer discards the
// torn frame, redials, and resends from the first frame the kernel did not
// wholly take. When the dial fails the peer is unreachable: the lane drops
// what it holds, counts it, and reports the peer to the unreachable
// handler, whose death verdict settles those frames. Once Close marks the
// lane closing, the writer writes what it holds on a connection already
// up, never dials, and exits.
func (t *TCP) writeLane(l *tcpLane, node, lane int) {
	defer t.wg.Done()
	var spare []byte
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	connected := conn != nil // redials after the first connection get the short budget
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.closing {
			l.wake.Wait()
		}
		buf, queued := l.pending, l.queued
		l.pending, l.queued = spare[:0], 0
		l.room.Broadcast()
		l.mu.Unlock()
		if len(buf) == 0 {
			break // closing, and nothing left to write
		}

		off, sent, writes := 0, 0, uint64(0)
		for off < len(buf) {
			if conn == nil {
				if conn = t.connect(l, node, lane, connected); conn == nil {
					break
				}
				connected = true
			}
			n, err := conn.Write(buf[off:])
			writes++
			end, whole := wholeFrames(buf[off:], n)
			off, sent = off+end, sent+whole
			if err != nil {
				conn.Close()
				conn = nil
			}
		}

		l.mu.Lock()
		l.writes += writes
		l.frames += uint64(sent)
		lost := queued - sent
		if lost > 0 {
			// Unreachable, or closing without a connection: drop the rest
			// of the round and everything queued behind it.
			l.dropped += uint64(lost + l.queued)
			l.pending, l.queued = l.pending[:0], 0
			l.room.Broadcast()
		}
		l.mu.Unlock()
		if lost > 0 && t.quit.Err() == nil {
			t.mu.Lock()
			report := t.onUnreachable
			t.mu.Unlock()
			if report != nil {
				report(node)
			}
		}
		// The next round appends to spare, so it must not be the buffer
		// now pending: a jumbo frame's buffer is let go, not kept.
		spare = nil
		if cap(buf) <= 4*laneBound {
			spare = buf
		}
	}
	if conn != nil {
		conn.Close()
	}
}

// connect dials a lane's peer, unless Close has begun, and installs the
// connection where Close can bound its last write. nil means the lane has
// no connection: the peer is unreachable or the transport is closing.
func (t *TCP) connect(l *tcpLane, node, lane int, reconnect bool) net.Conn {
	if t.quit.Err() != nil {
		return nil
	}
	conn, err := t.dial(node, lane, reconnect)
	if err != nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conn = conn
	if l.closing {
		conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	}
	return conn
}

// wholeFrames reports how far into b the first n bytes complete frames:
// the offset just past the last whole frame, and how many frames that is.
func wholeFrames(b []byte, n int) (end, frames int) {
	for end+4 <= n {
		next := end + 4 + int(binary.LittleEndian.Uint32(b[end:]))
		if next > n {
			break
		}
		end, frames = next, frames+1
	}
	return end, frames
}

// BatchStats reports the lane writers' cumulative activity over every peer
// and lane, which the runtime bridges into px.wire.* metrics: writes made,
// frames they carried, frames dropped because their peer was unreachable
// or the transport closed first, and lane sends that met a full lane
// (SendLane waited for room, TrySendLane refused).
func (t *TCP) BatchStats() (writes, frames, dropped, backpressured uint64) {
	return t.LaneBatchStats(-1)
}

// LaneBatchStats reports one lane's writer activity summed across peers;
// a negative lane sums them all.
func (t *TCP) LaneBatchStats(lane int) (writes, frames, dropped, backpressured uint64) {
	t.mu.Lock()
	peers := t.peers
	t.mu.Unlock()
	for _, p := range peers {
		for i, l := range p.lanes {
			if lane < 0 || i == lane {
				l.mu.Lock()
				writes += l.writes
				frames += l.frames
				dropped += l.dropped
				backpressured += l.backpressured
				l.mu.Unlock()
			}
		}
	}
	return writes, frames, dropped, backpressured
}

// SameHostConns reports how many outbound connections took the same-host
// Unix-domain fabric instead of TCP.
func (t *TCP) SameHostConns() uint64 { return t.shmConns.Load() }

// dial establishes a lane's outbound connection to node, retrying with
// exponential backoff so peers may start in any order. When the peer
// shares this host and advertises a same-host listener, the Unix-domain
// path is tried before TCP (see shm.go). The full retry budget is startup
// grace for a lane's first connection; a redial after a break gets only a
// couple of attempts, so a lane to a dead peer drops its frames quickly
// instead of holding them for the length of the startup grace.
func (t *TCP) dial(node, lane int, reconnect bool) (net.Conn, error) {
	attempts := t.cfg.DialAttempts
	if reconnect && attempts > 2 {
		attempts = 2
	}
	t.mu.Lock()
	addr := t.peerAddr(node)
	t.mu.Unlock()
	backoff := t.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		conn, err := t.dialOnce(addr)
		if err == nil {
			if err = t.completeDial(conn, node, lane); err == nil {
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		select {
		case <-t.quit.Done():
			return nil, ErrClosed
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	return nil, fmt.Errorf("transport: dial node %d at %s: %w", node, addr, lastErr)
}

// dialOnce makes one connection attempt, preferring the same-host fabric
// when it applies. Close aborts it.
func (t *TCP) dialOnce(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: t.cfg.HandshakeTimeout}
	if !t.cfg.DisableSameHost {
		if conn, ok := dialSameHost(t.quit, &d, addr); ok {
			t.shmConns.Add(1)
			return conn, nil
		}
	}
	return d.DialContext(t.quit, "tcp", addr)
}

// completeDial runs the client half of the handshake and verifies the
// answering node is the one we meant to reach. The peer's hello payload
// (read from its handshake response) is delivered, on the lane's writer,
// before the dial is declared complete, so the node holds the peer's
// announcement before its first frame on the new connection leaves. Close
// aborts the exchange by closing the connection.
func (t *TCP) completeDial(conn net.Conn, node, lane int) error {
	defer context.AfterFunc(t.quit, func() { conn.Close() })()
	conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(t.handshakeBytes(lane)); err != nil {
		return err
	}
	got, hello, _, err := t.readHandshake(conn)
	if err != nil {
		return err
	}
	if got != node {
		return fmt.Errorf("transport: dialed node %d but node %d answered", node, got)
	}
	t.deliverHello(got, hello)
	return nil
}

// Close shuts the listeners and inbound connections, aborts every dial in
// progress, lets every lane writer push the frames it already holds onto a
// connection already up (within closeFlushTimeout; a lane without one
// drops them), and waits for the accept, read and write goroutines to
// finish.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed.Store(true)
	t.cancel()
	for c := range t.inbound {
		c.Close()
	}
	peers := t.peers
	t.mu.Unlock()
	t.ln.Close()
	if t.shm != nil {
		t.shm.Close()
		removeSameHost(t.ln.Addr())
	}
	deadline := time.Now().Add(closeFlushTimeout)
	for _, p := range peers {
		for _, l := range p.lanes {
			l.mu.Lock()
			l.closing = true
			if l.conn != nil {
				l.conn.SetWriteDeadline(deadline)
			}
			// The writer flushes and exits; senders waiting for room
			// observe the close.
			l.wake.Signal()
			l.room.Broadcast()
			l.mu.Unlock()
		}
	}
	t.wg.Wait()
	return nil
}
