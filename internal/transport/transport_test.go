package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// collector is a Handler that records frames in arrival order.
type collector struct {
	mu     sync.Mutex
	frames []struct {
		from int
		data string
	}
}

func (c *collector) handle(from int, frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, struct {
		from int
		data string
	}{from, string(frame)})
}

func (c *collector) wait(t *testing.T, n int) []struct {
	from int
	data string
} {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.frames)
		if got >= n {
			out := append(c.frames[:0:0], c.frames...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames, have %d", n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

// exerciseTransport runs the shared conformance checks over three nodes of
// any Transport implementation.
func exerciseTransport(t *testing.T, nodes []Transport, cols []*collector) {
	t.Helper()
	// Ordered delivery per pair.
	for i := 0; i < 10; i++ {
		if err := nodes[0].Send(1, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	frames := cols[1].wait(t, 10)
	for i, f := range frames {
		if f.from != 0 || f.data != fmt.Sprintf("a%d", i) {
			t.Fatalf("frame %d: got from=%d data=%q", i, f.from, f.data)
		}
	}
	// All-pairs connectivity.
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if err := nodes[i].Send(j, []byte(fmt.Sprintf("%d->%d", i, j))); err != nil {
				t.Fatalf("send %d->%d: %v", i, j, err)
			}
		}
	}
	for j := range nodes {
		want := len(nodes) - 1
		if j == 1 {
			want += 10
		}
		cols[j].wait(t, want)
	}
	// Self and out-of-range sends are rejected.
	if err := nodes[0].Send(0, []byte("self")); err == nil {
		t.Fatal("send to self succeeded")
	}
	if err := nodes[0].Send(len(nodes), []byte("beyond")); err == nil {
		t.Fatal("send beyond machine succeeded")
	}
}

func TestInprocFabric(t *testing.T) {
	f := NewFabric(3)
	nodes := make([]Transport, 3)
	cols := make([]*collector, 3)
	for i := range nodes {
		nodes[i] = f.Node(i)
		cols[i] = &collector{}
		nodes[i].SetHandler(cols[i].handle)
		if err := nodes[i].Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	exerciseTransport(t, nodes, cols)
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	if err := nodes[0].Send(1, []byte("late")); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func newTCPTrio(t *testing.T, ranges [][2]int) ([]Transport, []*collector) {
	t.Helper()
	tcps := make([]*TCP, 3)
	addrs := make([]string, 3)
	for i := range tcps {
		tt, err := NewTCP(TCPConfig{Self: i, Listen: "127.0.0.1:0", Ranges: ranges,
			Peers: make([]string, 3)})
		if err != nil {
			t.Fatalf("new tcp %d: %v", i, err)
		}
		tcps[i] = tt
		addrs[i] = tt.Addr().String()
	}
	nodes := make([]Transport, 3)
	cols := make([]*collector, 3)
	for i, tt := range tcps {
		tt.SetPeers(addrs)
		cols[i] = &collector{}
		tt.SetHandler(cols[i].handle)
		if err := tt.Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		nodes[i] = tt
	}
	return nodes, cols
}

func TestTCPTransport(t *testing.T) {
	nodes, cols := newTCPTrio(t, [][2]int{{0, 2}, {2, 4}, {4, 6}})
	exerciseTransport(t, nodes, cols)
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

func TestTCPDialRetry(t *testing.T) {
	// Node 1 does not exist yet when node 0's first Send begins dialing:
	// the bounded retry loop must absorb connection-refused failures until
	// the peer comes up.
	reserve, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := reserve.Addr().String()
	reserve.Close()

	t0, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	c0 := &collector{}
	t0.SetHandler(c0.handle)
	addrs := []string{t0.Addr().String(), addr1}
	t0.SetPeers(addrs)
	if err := t0.Start(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- t0.Send(1, []byte("early")) }()
	time.Sleep(150 * time.Millisecond) // several dial attempts fail: nothing listens yet

	t1, err := NewTCP(TCPConfig{Self: 1, Listen: addr1, Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	c1 := &collector{}
	t1.SetHandler(c1.handle)
	if err := t1.Start(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("send with delayed peer: %v", err)
	}
	got := c1.wait(t, 1)
	if got[0].data != "early" || got[0].from != 0 {
		t.Fatalf("got %+v", got[0])
	}
}

// newTCPPair builds a connected two-node TCP transport with the given
// extra config applied to both ends.
func newTCPPair(t *testing.T, tune func(*TCPConfig)) ([]Transport, []*collector) {
	t.Helper()
	tcps := make([]*TCP, 2)
	addrs := make([]string, 2)
	for i := range tcps {
		cfg := TCPConfig{Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2)}
		if tune != nil {
			tune(&cfg)
		}
		tt, err := NewTCP(cfg)
		if err != nil {
			t.Fatalf("new tcp %d: %v", i, err)
		}
		tcps[i] = tt
		addrs[i] = tt.Addr().String()
	}
	nodes := make([]Transport, 2)
	cols := make([]*collector, 2)
	for i, tt := range tcps {
		tt.SetPeers(addrs)
		cols[i] = &collector{}
		tt.SetHandler(cols[i].handle)
		if err := tt.Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		nodes[i] = tt
	}
	return nodes, cols
}

// checkBatchedFlood drives many concurrent senders at node 1 through send
// and verifies every frame arrives intact and in per-sender order. A frame
// is "s<sender>.<seq>." followed by pad zero bytes.
func checkBatchedFlood(t *testing.T, send func(frame []byte) error, cols []*collector, pad int) {
	t.Helper()
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				frame := append([]byte(fmt.Sprintf("s%d.%d.", s, i)), make([]byte, pad)...)
				if err := send(frame); err != nil {
					t.Errorf("send s%d.%d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	frames := cols[1].wait(t, senders*perSender)
	next := make([]int, senders)
	for _, f := range frames {
		var s, i int
		if _, err := fmt.Sscanf(f.data, "s%d.%d.", &s, &i); err != nil || f.from != 0 || len(f.data) < pad {
			t.Fatalf("corrupt frame %q from %d", f.data, f.from)
		}
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived after %d sent", s, i, next[s])
		}
		next[s]++
	}
}

// TestTCPGroupCommitBatching floods one peer connection from many
// goroutines: the lane writer batches whatever they queue, with no lost,
// torn, or reordered frames.
func TestTCPGroupCommitBatching(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	checkBatchedFlood(t, func(f []byte) error { return nodes[0].Send(1, f) }, cols, 0)
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPSendAfterCloseErrors pins the ErrClosed path: a closed transport
// takes no frame.
func TestTCPSendAfterCloseErrors(t *testing.T) {
	nodes, _ := newTCPPair(t, nil)
	if err := nodes[0].Send(1, []byte("pre")); err != nil {
		t.Fatalf("send: %v", err)
	}
	nodes[0].Close()
	if err := nodes[0].Send(1, []byte("post")); err == nil {
		t.Fatal("send on closed transport succeeded")
	}
	nodes[1].Close()
}

func TestTCPHandshakeRejectsWrongRanges(t *testing.T) {
	// Two nodes configured with conflicting locality partitions must not
	// exchange frames. Send takes the frame; the lane cannot connect.
	ta, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Ranges: [][2]int{{0, 2}, {2, 4}}, Peers: make([]string, 2),
		DialAttempts: 2, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0",
		Ranges: [][2]int{{0, 3}, {3, 4}}, Peers: make([]string, 2),
		DialAttempts: 2, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	addrs := []string{ta.Addr().String(), tb.Addr().String()}
	ta.SetPeers(addrs)
	tb.SetPeers(addrs)
	ca, cb := &collector{}, &collector{}
	ta.SetHandler(ca.handle)
	tb.SetHandler(cb.handle)
	if err := ta.Start(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(1, []byte("mismatched")); err != nil {
		t.Fatalf("send not taken: %v", err)
	}
	// The lane writer's dial fails the range check, so the peer is
	// unreachable: the frame is dropped and counted, never delivered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, dropped, _ := ta.BatchStats(); dropped == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame across mismatched partitions was not dropped")
		}
		time.Sleep(time.Millisecond)
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.frames) != 0 {
		t.Fatalf("%d frames delivered across mismatched partitions", len(cb.frames))
	}
}

// TestTCPRefusesOtherHandshakeVersions: the transport speaks exactly one
// handshake layout. A peer announcing any other version is refused with an
// error naming both versions; the listener answers with its own header
// before hanging up, so the refusal reaches the dialer (which has a caller
// to report to) in those words too.
func TestTCPRefusesOtherHandshakeVersions(t *testing.T) {
	tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	col := &collector{}
	tt.SetHandler(col.handle)
	tt.SetPeers([]string{tt.Addr().String(), "127.0.0.1:1"})
	if err := tt.Start(); err != nil {
		t.Fatal(err)
	}
	header := func(version uint16) []byte {
		hs := binary.LittleEndian.AppendUint32(nil, hsMagic)
		hs = binary.LittleEndian.AppendUint16(hs, version)
		hs = binary.LittleEndian.AppendUint32(hs, 1)   // node
		hs = binary.LittleEndian.AppendUint32(hs, 0)   // lo
		hs = binary.LittleEndian.AppendUint32(hs, 0)   // hi
		hs = binary.LittleEndian.AppendUint16(hs, 0)   // lane
		return binary.LittleEndian.AppendUint32(hs, 0) // hello length
	}
	for _, v := range []uint16{0, 1, 2, 3, hsVersion + 1, 0xffff} {
		_, _, _, err := tt.readHandshake(bytes.NewReader(header(v)))
		if err == nil {
			t.Fatalf("handshake version %d accepted", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("speaks %d", hsVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d refusal %q does not say %q", v, err, want)
			}
		}
	}
	if _, _, _, err := tt.readHandshake(bytes.NewReader(header(hsVersion))); err != nil {
		t.Fatalf("own version refused: %v", err)
	}

	// Over a real socket the refusal is the listener's own header and no
	// frame delivered.
	conn, err := net.Dial("tcp", tt.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("from-the-past")
	stream := binary.LittleEndian.AppendUint32(header(hsVersion-1), uint32(len(payload)))
	if _, err := conn.Write(append(stream, payload...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The listener hangs up right after this reply, never having entered
	// its frame loop.
	reply := make([]byte, len(tt.handshakeBytes(0)))
	if _, err := io.ReadFull(conn, reply); err != nil || !bytes.Equal(reply, tt.handshakeBytes(0)) {
		t.Fatalf("refused peer read % x, err %v; want the listener's header", reply, err)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.frames) != 0 {
		t.Fatalf("%d frames delivered from a refused peer", len(col.frames))
	}
}

// newStalledTCP builds node 0 of a two-node machine whose peer address
// leads nowhere, for tests that install the lane connection themselves
// (stallLane). Close runs at cleanup.
func newStalledTCP(t *testing.T, tune func(*TCPConfig)) *TCP {
	t.Helper()
	cfg := TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2), DialAttempts: 1}
	if tune != nil {
		tune(&cfg)
	}
	tt, err := NewTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tt.SetPeers([]string{tt.Addr().String(), "127.0.0.1:9"})
	t.Cleanup(func() { tt.Close() })
	return tt
}

// stallLane installs one end of a synchronous pipe as the connection of
// tt's lane to node 1, before anything is sent on it: the lane writer's
// writes block until the test reads the returned end, which nobody does
// unless the test says so.
func stallLane(t *testing.T, tt *TCP, lane int) (*tcpLane, net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { srv.Close() })
	l := tt.peers[1].lanes[lane]
	l.mu.Lock()
	l.conn = cli
	l.mu.Unlock()
	return l, srv
}

// fillLane sends a first frame on a stalled lane, waits until the writer
// has taken it (its write now blocks on the pipe), then queues exactly
// laneBound bytes of 1KB records behind it: the lane is at its bound.
func fillLane(t *testing.T, tt *TCP, l *tcpLane, lane int) (filler []byte) {
	t.Helper()
	if err := tt.SendLane(1, lane, []byte("first")); err != nil {
		t.Fatal(err)
	}
	waitLane(t, l, func() bool { return l.running && l.queued == 0 })
	filler = bytes.Repeat([]byte{'f'}, 1020) // 1KB with its length header
	for i := 0; i < laneBound/1024; i++ {
		if err := tt.SendLane(1, lane, filler); err != nil {
			t.Fatal(err)
		}
	}
	waitLane(t, l, func() bool { return len(l.pending) == laneBound })
	return filler
}

// TestTCPSendReturnsWhileWriteStalled: Send copies the frame and returns
// while the lane's write is stuck in the kernel, so the caller may
// overwrite its buffer at once; the peer still receives the original.
func TestTCPSendReturnsWhileWriteStalled(t *testing.T) {
	tt := newStalledTCP(t, nil)
	l, srv := stallLane(t, tt, 0)
	if err := tt.Send(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	waitLane(t, l, func() bool { return l.queued == 0 })
	buf := []byte("original")
	done := make(chan error, 1)
	go func() { done <- tt.Send(1, buf) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send waited on a stalled write")
	}
	copy(buf, "scribble")
	readFrame(t, srv, "first")
	readFrame(t, srv, "original")
}

// TestTCPLaneBoundBackpressure: a lane holding laneBound unwritten bytes
// makes SendLane wait, counted once, while Send still returns; the waiter
// proceeds once the writer takes the backlog, and every frame arrives in
// order.
func TestTCPLaneBoundBackpressure(t *testing.T) {
	tt := newStalledTCP(t, nil)
	l, srv := stallLane(t, tt, 0)
	filler := fillLane(t, tt, l, 0)

	held := make(chan error, 1)
	go func() { held <- tt.SendLane(1, 0, []byte("held")) }()
	waitLane(t, l, func() bool { return l.backpressured == 1 })
	sent := make(chan error, 1)
	go func() { sent <- tt.Send(1, []byte("control")) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send waited at the lane bound")
	}
	select {
	case err := <-held:
		t.Fatalf("SendLane returned %v at the lane bound", err)
	default:
	}

	readFrame(t, srv, "first")
	for i := 0; i < laneBound/1024; i++ {
		readFrame(t, srv, string(filler))
	}
	readFrame(t, srv, "control")
	if err := <-held; err != nil {
		t.Fatalf("send after the backlog was taken: %v", err)
	}
	readFrame(t, srv, "held")
	if _, _, _, backpressured := tt.BatchStats(); backpressured != 1 {
		t.Fatalf("backpressured = %d, want 1", backpressured)
	}
}

// TestTCPTrySendLaneRefusesAtBound: where SendLane would wait, TrySendLane
// refuses with ErrLaneFull at once, counted like a wait, and the refused
// frame never reaches the peer; once the writer takes the backlog the lane
// takes frames again.
func TestTCPTrySendLaneRefusesAtBound(t *testing.T) {
	tt := newStalledTCP(t, nil)
	l, srv := stallLane(t, tt, 0)
	filler := fillLane(t, tt, l, 0)
	if err := tt.TrySendLane(1, 0, []byte("refused")); !errors.Is(err, ErrLaneFull) {
		t.Fatalf("TrySendLane at the lane bound: %v, want ErrLaneFull", err)
	}
	if err := tt.Send(1, []byte("control")); err != nil {
		t.Fatal(err)
	}
	readFrame(t, srv, "first")
	for i := 0; i < laneBound/1024; i++ {
		readFrame(t, srv, string(filler))
	}
	readFrame(t, srv, "control")
	waitLane(t, l, func() bool { return len(l.pending) == 0 })
	if err := tt.TrySendLane(1, 0, []byte("taken")); err != nil {
		t.Fatalf("TrySendLane on a drained lane: %v", err)
	}
	readFrame(t, srv, "taken")
	if _, _, _, backpressured := tt.BatchStats(); backpressured != 1 {
		t.Fatalf("backpressured = %d, want 1", backpressured)
	}
}

// TestTCPLaneBoundFlood floods a peer whose handler is slow to start, so
// the lane reaches its bound: SendLane must wait without losing, tearing,
// or reordering frames.
func TestTCPLaneBoundFlood(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	tt := nodes[0].(*TCP)
	slow := cols[1].handle
	var once sync.Once
	peer := nodes[1].(*TCP)
	peer.mu.Lock()
	peer.handler = func(from int, frame []byte) {
		once.Do(func() { time.Sleep(100 * time.Millisecond) })
		slow(from, frame)
	}
	peer.mu.Unlock()
	checkBatchedFlood(t, func(f []byte) error { return tt.SendLane(1, 0, f) }, cols, 4<<10)
	if writes, _, _, backpressured := tt.BatchStats(); writes == 0 || backpressured == 0 {
		t.Fatalf("writes=%d backpressured=%d, want both nonzero", writes, backpressured)
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPCloseFlushesTakenFrames: frames a lane has taken are still
// written by Close when the lane's connection is up.
func TestTCPCloseFlushesTakenFrames(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	defer nodes[1].Close()
	if err := nodes[0].Send(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	cols[1].wait(t, 1) // the lane is connected
	for i := 0; i < 100; i++ {
		if err := nodes[0].Send(1, []byte(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Close()
	for i, f := range cols[1].wait(t, 101)[1:] {
		if f.data != fmt.Sprintf("f%d", i) {
			t.Fatalf("frame %d reads %q", i, f.data)
		}
	}
}

// TestTCPCloseBoundedByStalledPeer: a peer that never reads cannot hold
// Close past its flush deadline; the frame it never took is dropped.
func TestTCPCloseBoundedByStalledPeer(t *testing.T) {
	tt := newStalledTCP(t, nil)
	l, _ := stallLane(t, tt, 0)
	if err := tt.Send(1, []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	waitLane(t, l, func() bool { return l.queued == 0 })
	start := time.Now()
	tt.Close()
	if took := time.Since(start); took > closeFlushTimeout+2*time.Second {
		t.Fatalf("Close took %v with a stalled peer, deadline %v", took, closeFlushTimeout)
	}
	if _, _, dropped, _ := tt.BatchStats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

// TestTCPUnreachableReported: a lane that cannot reach its peer drops the
// frames it took and names the peer to the unreachable handler; frames
// dropped because the transport closed are not reported.
func TestTCPUnreachableReported(t *testing.T) {
	tt := newStalledTCP(t, nil)
	reported := make(chan int, 4)
	tt.SetUnreachableHandler(func(node int) { reported <- node })
	if err := tt.Send(1, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	select {
	case node := <-reported:
		if node != 1 {
			t.Fatalf("reported node %d unreachable, want 1", node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dropped frame was never reported")
	}
	if _, _, dropped, _ := tt.BatchStats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}

	l, _ := stallLane(t, tt, 0)
	if err := tt.Send(1, []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	waitLane(t, l, func() bool { return l.queued == 0 })
	tt.Close()
	if len(reported) != 0 {
		t.Fatal("a frame dropped by Close was reported as unreachable")
	}
}

// TestTCPCloseAbortsDial: a peer that accepts the connection but never
// answers the handshake cannot hold Close for the handshake timeout.
func TestTCPCloseAbortsDial(t *testing.T) {
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := mute.Accept(); err == nil {
			accepted <- c
		}
	}()
	tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2),
		DisableSameHost: true, HandshakeTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tt.SetPeers([]string{tt.Addr().String(), mute.Addr().String()})
	if err := tt.Send(1, []byte("never")); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-accepted:
		defer c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the lane never dialed")
	}
	start := time.Now()
	tt.Close()
	if took := time.Since(start); took > closeFlushTimeout+2*time.Second {
		t.Fatalf("Close took %v with a handshake in progress", took)
	}
}

// TestTCPRedialMidFlood cuts a lane's connection in the middle of a
// multi-sender flood. The writer redials and resends from the first frame
// the kernel did not wholly take: every sender's frames arrive strictly
// in order, none twice, and each sender's last frame, sent only after the
// cut, arrives.
func TestTCPRedialMidFlood(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	defer nodes[1].Close()
	defer nodes[0].Close()
	tt := nodes[0].(*TCP)
	l := tt.peers[1].lanes[0]
	const senders, perSender = 4, 2000
	cut := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if i == perSender-1 {
					<-cut
				}
				frame := append([]byte(fmt.Sprintf("s%d.%d.", s, i)), make([]byte, 200)...)
				if err := tt.SendLane(1, 0, frame); err != nil {
					t.Errorf("send s%d.%d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	cols[1].wait(t, senders*perSender/4)
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
	close(cut)
	wg.Wait()

	last := make([]int, senders)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cols[1].mu.Lock()
		frames := append(cols[1].frames[:0:0], cols[1].frames...)
		cols[1].mu.Unlock()
		for s := range last {
			last[s] = -1
		}
		for _, f := range frames {
			var s, i int
			if _, err := fmt.Sscanf(f.data, "s%d.%d.", &s, &i); err != nil {
				t.Fatalf("corrupt frame %q", f.data[:16])
			}
			if i <= last[s] {
				t.Fatalf("sender %d: frame %d arrived after frame %d", s, i, last[s])
			}
			last[s] = i
		}
		done := true
		for _, i := range last {
			done = done && i == perSender-1
		}
		if done {
			if dials := tt.SameHostConns(); dials < 2 {
				t.Fatalf("the lane dialed %d times, want a redial", dials)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("last frames seen %v, want %d each", last, perSender-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitLane polls cond under the lane's lock until it holds or the deadline
// lapses.
func waitLane(t *testing.T, l *tcpLane, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for peer state")
		}
		time.Sleep(time.Millisecond)
	}
}

// readFrame consumes one length-prefixed frame from c and checks its
// payload.
func readFrame(t *testing.T, c net.Conn, want string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lenBuf [4]byte
	if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
		t.Fatalf("read frame length: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(c, payload); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	if string(payload) != want {
		t.Fatalf("frame %q, want %q", payload, want)
	}
}
