package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
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
	// DialAttempts bounds connection attempts per Send; peers commonly
	// start in arbitrary order, so dialing retries. Default 40.
	DialAttempts int
	// DialBackoff is the initial retry delay, doubling per attempt up to
	// 500ms. Default 25ms.
	DialBackoff time.Duration
	// HandshakeTimeout bounds the handshake exchange. Default 5s.
	HandshakeTimeout time.Duration
	// BatchWindow, when positive, lets a flush linger up to this long so
	// more frames coalesce into one write. The linger is adaptive: the
	// flusher yields the processor and writes as soon as the pending
	// batch stops growing, so the window is a bound, not a fixed delay.
	// Zero (the default) still batches by group commit: frames posted
	// while a write syscall is in flight are coalesced into the next one,
	// so batching costs idle senders no latency at all.
	BatchWindow time.Duration
	// BatchBytes is the buffered-byte level at which a window-delayed
	// flush stops waiting and writes immediately. Default 64KB. Ignored
	// when BatchWindow is zero.
	BatchBytes int
	// MaxPending bounds each lane's pending (buffered, unwritten) bytes.
	// A sender that finds the buffer full blocks — woken in FIFO order as
	// flush rounds free space — instead of growing the batch without
	// bound, so one hot sender cannot stretch every other sender's
	// group-commit latency arbitrarily: a round is at most MaxPending
	// bytes plus what arrives during its write. The bound is soft by one
	// frame, which also lets frames larger than MaxPending through once
	// the buffer drains below it. Default 4MB; negative disables the
	// bound.
	MaxPending int
	// DisableSameHost turns off the same-host fabric: peers are always
	// dialed over TCP even when a Unix-domain listener advertises that
	// they share this host. See shm.go.
	DisableSameHost bool
	// ReadBufferBytes sizes each inbound connection's read buffer. Frames
	// that fit it are delivered as aliased sub-slices of it (zero receive
	// copies); larger frames take the copy path. It also bounds the alias
	// path's hidden cost: a frame that straddles the buffer's end is slid
	// to the front before it can be peeked contiguously, so the buffer
	// should be a healthy multiple of the common frame size. Default
	// 256KB.
	ReadBufferBytes int
	// PoisonAliasedReads scribbles 0xdd over every aliased frame after
	// its handler returns, so a handler that illegally retained the slice
	// observes garbage (and, under -race, a write/read race) instead of
	// silently reading recycled bytes. Defaults to true under the
	// debugpool build tag.
	PoisonAliasedReads bool
}

// MaxLanes caps TCPConfig.Lanes (and the lane index a handshake may
// announce — a corrupt hello must not imply an absurd connection count).
const MaxLanes = 16

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
	if c.BatchBytes <= 0 {
		c.BatchBytes = 64 << 10
	}
	if c.MaxPending == 0 {
		c.MaxPending = 4 << 20
	}
	if c.ReadBufferBytes <= 0 {
		c.ReadBufferBytes = 256 << 10
	}
	if c.ReadBufferBytes < 4<<10 {
		c.ReadBufferBytes = 4 << 10
	}
	if !c.PoisonAliasedReads {
		c.PoisonAliasedReads = poisonAliasDefault
	}
}

// TCP carries frames between nodes as length-prefixed records on TCP
// streams (or Unix-domain streams when peers share a host — see shm.go).
// Each node listens for its peers and lazily dials Lanes outbound
// (send-only) connections per peer, so connection establishment order
// never matters; a failed dial retries with exponential backoff a bounded
// number of times.
//
// Sends batch by group commit: the first sender to a (peer, lane) becomes
// the flush leader and writes whatever is pending; senders arriving while
// the leader's syscall is in flight append to the next batch and wait for
// its result, so concurrent parcel streams coalesce into a fraction of
// the syscalls with no added latency when traffic is sparse. The batch is
// a gather vector handed to writev (net.Buffers): a pending frame is the
// caller's own slice, referenced — not copied — until the write covering
// it returns, which is safe because Send does not return before that
// write's verdict. Frame length headers are carved from pooled chunks and
// recycled with the round. BatchWindow adds an optional time budget for
// throughput-biased deployments.
//
// The batcher is fair per lane: a leader writes exactly one round — the
// batch containing its own frame — and hands any backlog that accumulated
// during the write to a detached drainer goroutine, so no sender is held
// captive flushing other senders' traffic. MaxPending bounds the pending
// bytes with FIFO blocking admission, so a hot sender saturating one lane
// backs itself off while everyone else's frames keep riding bounded
// rounds. BatchStats exposes the batcher's aggregated activity for the
// px.wire.* metric bridge; LaneBatchStats exposes one lane's.
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

	mu      sync.Mutex
	handler Handler
	hello   []byte
	onHello func(node int, payload []byte)
	started bool
	closed  bool
	inbound map[net.Conn]struct{}

	peers []*tcpPeer
	wg    sync.WaitGroup
}

// tcpPeer is one remote node: its lane set. Lane 0 carries control
// traffic (plain Send); the runtime spreads parcel traffic across the
// rest by destination-GID affinity.
type tcpPeer struct {
	lanes []*tcpLane
}

// tcpLane is one (peer, lane) connection with its own group-commit
// batcher, backpressure bound, and stats.
type tcpLane struct {
	mu        sync.Mutex
	room      *sync.Cond // signals space in the pending batch to blocked senders
	conn      net.Conn
	connected bool // a connection has succeeded at least once
	flushing  bool // a leader or drainer is running flush rounds

	// Pending batch: vec alternates 4-byte header slices (carved from hdr
	// chunks) and caller frame slices; pendBytes is their total length.
	// spareVec and spareChunks hold the previous round's backing arrays, so
	// the pending and the in-flight round swap lists instead of making new
	// ones.
	vec         net.Buffers
	spareVec    net.Buffers
	hdrChunks   []*[]byte // header chunks feeding vec
	spareChunks []*[]byte
	pendBytes   int

	// cursor is the flushing round's writev cursor, touched only by the one
	// flusher and outside mu. As a lane field it is on the heap already; a
	// local net.Buffers would escape there on every round through WriteTo.
	cursor net.Buffers

	waiters []tcpWaiter // senders whose frames sit in the pending batch

	// Batcher activity, guarded by mu (see TCP.BatchStats).
	batches       uint64 // flush rounds written
	handoffs      uint64 // backlogs handed from a leader to a drainer
	backpressured uint64 // sends that blocked on the MaxPending bound
}

// tcpWaiter is one follower's claim on a batch: the byte offset its frame
// ends at and the channel its delivery verdict arrives on.
type tcpWaiter struct {
	end int
	ch  chan error
}

// hdrChunkSize is the capacity of one pooled header chunk: 4-byte frame
// length headers are carved from it sequentially, so one chunk covers 128
// frames of a batch before the next is pulled from the pool. Chunks are
// fixed-capacity by construction — a header sub-slice already gathered
// into the iovec must never be invalidated by a growing append.
const hdrChunkSize = 512

var hdrChunkPool = sync.Pool{New: func() any {
	b := make([]byte, 0, hdrChunkSize)
	return &b
}}

// flushResult is the outcome of one batch write: the error, if any, and
// how many bytes the kernel accepted before it. Frames wholly inside the
// accepted prefix were sent exactly as a successful unbatched write would
// have sent them; frames at or past the cut were torn or never written, so
// the mid-frame connection drop guarantees the peer discards them — the
// Send contract that an error implies non-delivery, preserved per frame.
type flushResult struct {
	err     error
	okBytes int
}

// verdict resolves one frame's Send result from its batch's outcome.
func (r flushResult) verdict(end, node int) error {
	if r.err == nil || end <= r.okBytes {
		return nil
	}
	return fmt.Errorf("transport: send to node %d: %w", node, r.err)
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
	t := &TCP{cfg: cfg, ln: ln, inbound: make(map[net.Conn]struct{})}
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
// joining peer becomes sendable immediately; the first Send dials it.
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
	if t.closed {
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
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.mu.Lock()
		if t.closed {
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
	deadline := time.Now().Add(t.cfg.HandshakeTimeout)
	conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, t.cfg.ReadBufferBytes)
	from, hello, _, err := t.readHandshake(br)
	if err != nil {
		if errors.Is(err, errHandshakeVersion) {
			// Answer before hanging up: the dialer has a caller to report
			// to, and our header tells it which build is the odd one out.
			conn.Write(t.handshakeBytes(0))
		}
		return
	}
	if _, err := conn.Write(t.handshakeBytes(0)); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	// The hello is delivered before any frame from this connection: frames
	// that depend on it (interned parcels) decode against it in order.
	t.deliverHello(from, hello)
	var lenBuf [4]byte
	// The copy-path read buffer, grown to the largest copied frame seen.
	var frame []byte
	poison := t.cfg.PoisonAliasedReads
	for {
		n, err := readFrameLen(br, &lenBuf)
		if err != nil {
			return
		}
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
		t.mu.Lock()
		h, closed := t.handler, t.closed
		t.mu.Unlock()
		if closed {
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

// readFrameLen reads one 4-byte frame length header.
func readFrameLen(br *bufio.Reader, lenBuf *[4]byte) (uint32, error) {
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(lenBuf[:]), nil
}

// Send delivers frame to node on lane 0, dialing (with bounded retries) on
// first use or after a connection failure. See SendLane for the batching
// and ownership contract.
func (t *TCP) Send(node int, frame []byte) error {
	return t.SendLane(node, 0, frame)
}

// SendLane delivers frame to node on the given lane (LaneTransport).
// Concurrent sends to one lane batch: the frame joins the lane's pending
// gather vector, and either this call becomes the flush leader — writing
// the one round that carries its own frame, then handing any backlog to a
// drainer goroutine — or it waits for the leader to report its batch's
// fate. Either way SendLane does not return until the write covering its
// frame has completed, so the caller may recycle frame's backing buffer
// the moment SendLane returns even on the zero-copy path. With MaxPending
// set, a sender that finds the pending batch full blocks until a flush
// round frees space.
func (t *TCP) SendLane(node, lane int, frame []byte) error {
	if err := checkNode(t, node); err != nil {
		return err
	}
	if lane < 0 || lane >= t.cfg.Lanes {
		return fmt.Errorf("transport: lane %d outside [0,%d)", lane, t.cfg.Lanes)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	l := t.peers[node].lanes[lane]
	addr := ""
	if node < len(t.cfg.Peers) {
		addr = t.cfg.Peers[node]
	}
	t.mu.Unlock()
	if addr == "" {
		return fmt.Errorf("transport: no address for node %d", node)
	}
	if len(frame) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(frame), MaxFrame)
	}

	l.mu.Lock()
	if max := t.cfg.MaxPending; max > 0 {
		// Admission: while a flush is active and the pending batch is at
		// the bound, wait for a round to free space. Wakeups are FIFO
		// (sync.Cond queues waiters in order), so a hot sender cannot
		// perpetually cut the line. The bound is soft by one frame: the
		// sender admitted at pendBytes == max-1 may push the batch past
		// max, which also lets frames larger than MaxPending through.
		blocked := false
		for l.flushing && l.pendBytes >= max {
			if t.isClosed() {
				l.mu.Unlock()
				return ErrClosed
			}
			if !blocked {
				blocked = true
				l.backpressured++
			}
			l.room.Wait()
		}
	}
	l.append(frame)
	myEnd := l.pendBytes
	if l.flushing {
		// Follower: a leader's write is in flight; our frame rides the
		// next batch. Wait for that batch's verdict — which also keeps
		// frame's bytes alive until the writev covering them returns.
		ch := make(chan error, 1)
		l.waiters = append(l.waiters, tcpWaiter{end: myEnd, ch: ch})
		l.mu.Unlock()
		return <-ch
	}
	l.flushing = true
	res := t.flushRound(l, node, lane, addr)
	myErr := res.verdict(myEnd, node)
	if l.pendBytes > 0 {
		// Frames arrived while our round's write was in flight. Hand the
		// backlog to a drainer goroutine instead of flushing it here: the
		// leader already paid for the round carrying its own frame, and
		// holding it captive writing other senders' traffic would let one
		// hot stream tax whichever caller happened to lead.
		l.handoffs++
		l.mu.Unlock()
		go t.drainLane(l, node, lane, addr)
		return myErr
	}
	l.flushing = false
	l.room.Broadcast()
	l.mu.Unlock()
	return myErr
}

// append adds one frame to the lane's pending batch. The frame slice
// itself is referenced — the caller's Send blocks until the covering write
// returns, which is what makes the zero-copy safe; the 4-byte length
// header is carved from a pooled fixed-capacity chunk so the sub-slice can
// never be invalidated by a growing append. Callers hold l.mu.
func (l *tcpLane) append(frame []byte) {
	chunk := l.hdrChunk()
	start := len(*chunk)
	*chunk = binary.LittleEndian.AppendUint32(*chunk, uint32(len(frame)))
	l.vec = append(l.vec, (*chunk)[start:start+4], frame)
	l.pendBytes += 4 + len(frame)
}

// hdrChunk returns a header chunk with room for one more header, pulling
// a fresh one from the pool when the current chunk is full. Callers hold
// l.mu.
func (l *tcpLane) hdrChunk() *[]byte {
	if n := len(l.hdrChunks); n > 0 {
		if c := l.hdrChunks[n-1]; cap(*c)-len(*c) >= 4 {
			return c
		}
	}
	c := hdrChunkPool.Get().(*[]byte)
	*c = (*c)[:0]
	l.hdrChunks = append(l.hdrChunks, c)
	return c
}

// drainLane runs flush rounds for one lane until its pending batch
// empties, then releases flush leadership. It runs detached from any
// sender; after Close it terminates promptly because every round fails
// fast with ErrClosed verdicts.
func (t *TCP) drainLane(l *tcpLane, node, lane int, addr string) {
	l.mu.Lock()
	for l.pendBytes > 0 {
		t.flushRound(l, node, lane, addr)
	}
	l.flushing = false
	l.room.Broadcast()
	l.mu.Unlock()
}

// flushRound writes one batch — everything pending for the lane — and
// delivers per-frame verdicts to the senders waiting on it. Called with
// l.mu held and flushing set; returns with l.mu re-held. The result lets
// a leader derive the verdict for its own frame (followers of this round
// get theirs on their channels).
//
// The batch is a net.Buffers handed to writev: the pooled encode buffers
// referenced by it are owned by their (blocked) senders until the verdicts
// go out, and the header chunks return to their pool here.
// net.Buffers.WriteTo reports the bytes the kernel accepted before any
// error, which is what the per-frame verdict offsets compare against.
func (t *TCP) flushRound(l *tcpLane, node, lane int, addr string) flushResult {
	if t.cfg.BatchWindow > 0 && l.conn != nil && l.pendBytes < t.cfg.BatchBytes {
		// Throughput bias: linger once per batch so more frames join —
		// adaptively, by yielding the processor and flushing as soon as a
		// pass finds the batch stopped growing, with BatchWindow as the
		// hard bound. A fixed sleep can't express a µs-scale window (timer
		// granularity rounds it up to milliseconds) and would tax sparse
		// traffic with the full window on every flush; the yield loop
		// costs one scheduler pass when nobody else is sending.
		deadline := time.Now().Add(t.cfg.BatchWindow)
		for {
			last := l.pendBytes
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if l.pendBytes == last || l.pendBytes >= t.cfg.BatchBytes ||
				!time.Now().Before(deadline) {
				break
			}
		}
	}
	vec := l.vec
	chunks := l.hdrChunks
	waiters := l.waiters
	conn := l.conn
	reconnect := l.connected
	l.vec, l.spareVec = l.spareVec[:0], nil
	l.hdrChunks, l.spareChunks = l.spareChunks[:0], nil
	l.pendBytes = 0
	l.waiters = nil
	l.batches++
	// The pending batch just emptied: backpressured senders may append
	// to the next batch while this round's write is in flight.
	l.room.Broadcast()
	l.mu.Unlock()

	var res flushResult
	if t.isClosed() {
		res.err = ErrClosed
	} else if conn == nil {
		c, err := t.dial(node, lane, addr, reconnect)
		if err != nil {
			res.err = err
		} else {
			conn = c
		}
	}
	if res.err == nil {
		// WriteTo consumes its receiver as buffers complete, so it runs on
		// the cursor and vec keeps the round's slices for recycling.
		l.cursor = vec
		n, err := l.cursor.WriteTo(conn)
		l.cursor = nil
		res.okBytes = int(n)
		if err != nil {
			res.err = err
			// Drop the stream mid-frame so the peer discards every
			// frame past the accepted prefix.
			conn.Close()
			conn = nil
		}
	}
	for _, w := range waiters {
		w.ch <- res.verdict(w.end, node)
	}

	// The round is settled: recycle the header chunks and drop the frame
	// references so callers' pooled buffers are no longer pinned.
	for _, c := range chunks {
		hdrChunkPool.Put(c)
	}
	clear(chunks)
	clear(vec)

	if conn != nil && t.isClosed() {
		// Close swept the peers while our write was in flight; don't
		// re-install a connection nobody will close again.
		conn.Close()
		conn = nil
	}
	l.mu.Lock()
	l.conn = conn
	if conn != nil {
		l.connected = true
	}
	l.spareVec = vec[:0]
	l.spareChunks = chunks[:0]
	return res
}

// BatchStats reports the group-commit batcher's cumulative activity summed
// across every peer and lane: flush rounds written, backlogs handed from a
// leader to a drainer goroutine, and sends that blocked on the MaxPending
// admission bound. The distributed runtime bridges these into px.wire.*
// metrics; LaneBatchStats exposes the per-lane view.
func (t *TCP) BatchStats() (batches, handoffs, backpressured uint64) {
	t.mu.Lock()
	peers := t.peers
	t.mu.Unlock()
	for _, p := range peers {
		for _, l := range p.lanes {
			l.mu.Lock()
			batches += l.batches
			handoffs += l.handoffs
			backpressured += l.backpressured
			l.mu.Unlock()
		}
	}
	return batches, handoffs, backpressured
}

// LaneBatchStats reports one lane's batcher activity summed across peers.
func (t *TCP) LaneBatchStats(lane int) (batches, handoffs, backpressured uint64) {
	if lane < 0 || lane >= t.cfg.Lanes {
		return 0, 0, 0
	}
	t.mu.Lock()
	peers := t.peers
	t.mu.Unlock()
	for _, p := range peers {
		l := p.lanes[lane]
		l.mu.Lock()
		batches += l.batches
		handoffs += l.handoffs
		backpressured += l.backpressured
		l.mu.Unlock()
	}
	return batches, handoffs, backpressured
}

// SameHostConns reports how many outbound connections took the same-host
// Unix-domain fabric instead of TCP.
func (t *TCP) SameHostConns() uint64 { return t.shmConns.Load() }

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// dial establishes an outbound connection to node at addr, retrying with
// exponential backoff so peers may start in any order. When the peer
// shares this host and advertises a same-host listener, the Unix-domain
// path is tried before TCP (see shm.go). The full retry budget is startup
// grace for a first connection; reconnects after a break get only a
// couple of attempts, because Send is called from latency-sensitive paths
// (drain replies and migration verdicts on transport goroutines) that must
// not stall for minutes on a dead peer.
func (t *TCP) dial(node, lane int, addr string, reconnect bool) (net.Conn, error) {
	attempts := t.cfg.DialAttempts
	if reconnect && attempts > 2 {
		attempts = 2
	}
	backoff := t.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if t.isClosed() {
			return nil, ErrClosed
		}
		conn, err := t.dialOnce(addr)
		if err == nil {
			if err = t.completeDial(conn, node, lane); err == nil {
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	return nil, fmt.Errorf("transport: dial node %d at %s: %w", node, addr, lastErr)
}

// dialOnce makes one connection attempt, preferring the same-host fabric
// when it applies.
func (t *TCP) dialOnce(addr string) (net.Conn, error) {
	if !t.cfg.DisableSameHost {
		if conn, ok := dialSameHost(addr, t.cfg.HandshakeTimeout); ok {
			t.shmConns.Add(1)
			return conn, nil
		}
	}
	return net.DialTimeout("tcp", addr, t.cfg.HandshakeTimeout)
}

// completeDial runs the client half of the handshake and verifies the
// answering node is the one we meant to reach. The peer's hello payload
// (read from its handshake response) is delivered before the dial is
// declared complete, so a sender holds the peer's announcement before its
// first frame on the new connection.
func (t *TCP) completeDial(conn net.Conn, node, lane int) error {
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

// Close shuts the listeners and every connection, then waits for the
// accept and read goroutines to drain.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	peers := t.peers
	t.mu.Unlock()
	t.ln.Close()
	if t.shm != nil {
		t.shm.Close()
		removeSameHost(t.ln.Addr())
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		for _, l := range p.lanes {
			l.mu.Lock()
			if l.conn != nil {
				// Pending batches are abandoned: the leader's next round
				// sees the closed transport and fails its waiters,
				// upholding Close's "in-flight frames may be dropped".
				l.conn.Close()
				l.conn = nil
			}
			// Senders blocked on the MaxPending bound re-check and observe
			// the closed transport.
			l.room.Broadcast()
			l.mu.Unlock()
		}
	}
	t.wg.Wait()
	return nil
}
