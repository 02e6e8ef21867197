package transport

import (
	"bytes"
	"encoding/binary"
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

// checkBatchedFlood drives many concurrent senders at node 1 and verifies
// every frame arrives intact and in per-sender order despite batching.
func checkBatchedFlood(t *testing.T, nodes []Transport, cols []*collector) {
	t.Helper()
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := nodes[0].Send(1, []byte(fmt.Sprintf("s%d.%d", s, i))); err != nil {
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
		if _, err := fmt.Sscanf(f.data, "s%d.%d", &s, &i); err != nil || f.from != 0 {
			t.Fatalf("corrupt frame %q from %d", f.data, f.from)
		}
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived after %d sent", s, i, next[s])
		}
		next[s]++
	}
}

// TestTCPGroupCommitBatching floods one peer connection from many
// goroutines with the default zero batch window: batching must come purely
// from group commit, with no lost, torn, or reordered frames.
func TestTCPGroupCommitBatching(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	checkBatchedFlood(t, nodes, cols)
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPBatchWindow does the same under a positive linger window, which
// exercises the delayed-flush path and the BatchBytes early-out.
func TestTCPBatchWindow(t *testing.T) {
	nodes, cols := newTCPPair(t, func(c *TCPConfig) {
		c.BatchWindow = 200 * time.Microsecond
		c.BatchBytes = 4 << 10
	})
	checkBatchedFlood(t, nodes, cols)
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPSendAfterCloseErrors pins the ErrClosed path with batching in
// place.
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
	// exchange frames.
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
	if err := ta.Send(1, []byte("mismatched")); err == nil {
		t.Fatal("send across mismatched partitions succeeded")
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

// TestTCPMaxPendingFlood floods a peer through a tiny pending-byte bound:
// backpressure must throttle senders without losing, tearing, or
// reordering frames.
func TestTCPMaxPendingFlood(t *testing.T) {
	nodes, cols := newTCPPair(t, func(c *TCPConfig) {
		c.MaxPending = 256
	})
	checkBatchedFlood(t, nodes, cols)
	if batches, _, _ := nodes[0].(*TCP).BatchStats(); batches == 0 {
		t.Fatal("flood wrote no batches")
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPMaxPendingBackpressure pins the admission mechanics directly: a
// sender that finds the pending buffer at the bound while a flush is
// active blocks, is counted, and proceeds once a round frees space.
func TestTCPMaxPendingBackpressure(t *testing.T) {
	nodes, cols := newTCPPair(t, func(c *TCPConfig) {
		c.MaxPending = 64
	})
	tt := nodes[0].(*TCP)
	l := tt.peers[1].lanes[0]

	// Simulate a flush in progress with the pending batch already at the
	// bound.
	l.mu.Lock()
	l.flushing = true
	l.pendBytes = 128
	l.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- tt.Send(1, []byte("held")) }()
	select {
	case err := <-done:
		t.Fatalf("send returned %v despite a full pending buffer", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Free the batch the way a finished flush round would.
	l.mu.Lock()
	l.pendBytes = 0
	l.flushing = false
	l.room.Broadcast()
	l.mu.Unlock()

	if err := <-done; err != nil {
		t.Fatalf("send after space freed: %v", err)
	}
	if got := cols[1].wait(t, 1); got[0].data != "held" {
		t.Fatalf("got %q, want %q", got[0].data, "held")
	}
	if _, _, backpressured := tt.BatchStats(); backpressured != 1 {
		t.Fatalf("backpressured = %d, want 1", backpressured)
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPLeaderHandsOffBacklog verifies flush-leader fairness: a leader
// whose write completes with new frames already buffered returns after its
// own round and leaves the backlog to a drainer goroutine, so the leader
// is never held captive flushing other senders' traffic.
func TestTCPLeaderHandsOffBacklog(t *testing.T) {
	tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2)})
	if err != nil {
		t.Fatal(err)
	}
	tt.SetPeers([]string{tt.Addr().String(), "127.0.0.1:9"})
	defer tt.Close()

	// Install a synchronous pipe as the established connection: a write
	// stays in flight until this test reads it, which lets us park the
	// leader's round deterministically while a follower queues behind it.
	cli, srv := net.Pipe()
	defer srv.Close()
	l := tt.peers[1].lanes[0]
	l.mu.Lock()
	l.conn = cli
	l.connected = true
	l.mu.Unlock()

	leaderDone := make(chan error, 1)
	go func() { leaderDone <- tt.Send(1, []byte("lead")) }()
	waitLane(t, l, func() bool { return l.flushing && l.batches == 1 })

	followerDone := make(chan error, 1)
	go func() { followerDone <- tt.Send(1, []byte("tail")) }()
	waitLane(t, l, func() bool { return l.pendBytes > 0 })

	// Drain the leader's round; its Send must return even though the
	// follower's frame is still pending.
	readFrame(t, srv, "lead")
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader send: %v", err)
	}

	// The detached drainer flushes the backlog.
	readFrame(t, srv, "tail")
	if err := <-followerDone; err != nil {
		t.Fatalf("follower send: %v", err)
	}
	batches, handoffs, _ := tt.BatchStats()
	if batches != 2 || handoffs != 1 {
		t.Fatalf("batches=%d handoffs=%d, want 2 and 1", batches, handoffs)
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
