package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPLanesFanout is the sharded-lane ordering stress: many concurrent
// senders fan frames across every lane of a 4-lane pair (under -race in
// CI). Each sender sticks to one lane — the runtime's GID affinity
// contract — so per-sender order must survive even though the lanes' TCP
// streams race each other freely.
func TestTCPLanesFanout(t *testing.T) {
	nodes, cols := newTCPPair(t, func(c *TCPConfig) {
		c.Lanes = 4
	})
	tt := nodes[0].(*TCP)
	if tt.Lanes() != 4 {
		t.Fatalf("Lanes() = %d, want 4", tt.Lanes())
	}
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		lane := s % 4
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := tt.SendLane(1, lane, []byte(fmt.Sprintf("s%d.%d", s, i))); err != nil {
					t.Errorf("send s%d.%d lane %d: %v", s, i, lane, err)
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
			t.Fatalf("sender %d (lane %d): frame %d arrived after %d sent", s, s%4, i, next[s])
		}
		next[s]++
	}
	// Every lane must have actually carried traffic — the point of
	// sharding is that frames do NOT all funnel through one stream.
	for lane := 0; lane < 4; lane++ {
		if writes, _, _, _ := tt.LaneBatchStats(lane); writes == 0 {
			t.Fatalf("lane %d made no writes", lane)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
}

// TestTCPLaneBounds pins SendLane's index validation.
func TestTCPLaneBounds(t *testing.T) {
	nodes, _ := newTCPPair(t, func(c *TCPConfig) { c.Lanes = 2 })
	defer nodes[0].Close()
	defer nodes[1].Close()
	tt := nodes[0].(*TCP)
	if err := tt.SendLane(1, -1, []byte("x")); err == nil {
		t.Fatal("negative lane accepted")
	}
	if err := tt.SendLane(1, 2, []byte("x")); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
}

// TestTCPLanesMixedLaneCounts: the lane count is each dialer's own choice,
// not a machine-wide agreement — a listener accepts whatever lanes a peer
// opens.
func TestTCPLanesMixedLaneCounts(t *testing.T) {
	// Node 0 speaks 4 lanes; node 1 is a plain single-lane node. Frames
	// flow both ways: 0's lane sends all land on 1's one inbound path,
	// and 1's plain sends land on 0 as lane-0 traffic.
	tcps := make([]*TCP, 2)
	addrs := make([]string, 2)
	for i := range tcps {
		cfg := TCPConfig{Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2)}
		if i == 0 {
			cfg.Lanes = 4
		}
		tt, err := NewTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tt
		addrs[i] = tt.Addr().String()
	}
	cols := make([]*collector, 2)
	for i, tt := range tcps {
		tt.SetPeers(addrs)
		cols[i] = &collector{}
		tt.SetHandler(cols[i].handle)
		if err := tt.Start(); err != nil {
			t.Fatal(err)
		}
		defer tt.Close()
	}
	for lane := 0; lane < 4; lane++ {
		if err := tcps[0].SendLane(1, lane, []byte(fmt.Sprintf("lane%d", lane))); err != nil {
			t.Fatalf("send lane %d: %v", lane, err)
		}
	}
	if err := tcps[1].Send(0, []byte("plain")); err != nil {
		t.Fatalf("plain send: %v", err)
	}
	cols[1].wait(t, 4)
	if got := cols[0].wait(t, 1); got[0].data != "plain" {
		t.Fatalf("got %q", got[0].data)
	}
}

// TestTCPLaneSendAllocatesNothing pins the lane's round state: a warmed
// single sender's SendLane copies into the lane's two swapped buffers and
// the writer reuses them every round, so a frame costs no allocation on
// either the same-host fabric or plain TCP. The receiving handler only counts, so
// the process-wide count is the transport's own.
func TestTCPLaneSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	for _, tc := range []struct {
		name     string
		sameHost bool
	}{{"same-host", true}, {"tcp-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var got atomic.Int64
			tcps := make([]*TCP, 2)
			addrs := make([]string, 2)
			for i := range tcps {
				tt, err := NewTCP(TCPConfig{Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2),
					DisableSameHost: !tc.sameHost})
				if err != nil {
					t.Fatal(err)
				}
				defer tt.Close()
				tcps[i], addrs[i] = tt, tt.Addr().String()
			}
			for _, tt := range tcps {
				tt.SetPeers(addrs)
				tt.SetHandler(func(int, []byte) { got.Add(1) })
				if err := tt.Start(); err != nil {
					t.Fatal(err)
				}
			}
			frame := make([]byte, 128)
			send := func() {
				if err := tcps[0].SendLane(1, 0, frame); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				send() // dial, handshake, and warm the pools
			}
			const runs = 1000
			allocs := testing.AllocsPerRun(runs, send)
			deadline := time.Now().Add(10 * time.Second)
			for got.Load() < 100+runs+1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := got.Load(); n != 100+runs+1 {
				t.Fatalf("%d frames arrived, want %d", n, 100+runs+1)
			}
			if same := tcps[0].SameHostConns() > 0; same != tc.sameHost {
				t.Fatalf("same-host fabric in use = %v, want %v", same, tc.sameHost)
			}
			if allocs != 0 {
				t.Fatalf("SendLane allocates %.2f/frame, want 0", allocs)
			}
		})
	}
}

// retainer is a deliberately broken Handler: it keeps the frame slice
// after returning, violating the copy-what-you-retain contract.
type retainer struct {
	mu       sync.Mutex
	retained [][]byte
	seen     chan struct{}
}

func (r *retainer) handle(from int, frame []byte) {
	r.mu.Lock()
	r.retained = append(r.retained, frame)
	r.mu.Unlock()
	r.seen <- struct{}{}
}

// TestTCPPoisonCatchesRetainedFrame arms poison mode against a handler
// that illegally retains its aliased frame: after the handler returns the
// transport scribbles 0xdd over the connection-buffer window, so the
// retained slice must observe garbage instead of the original payload —
// the violation is caught instead of silently reading recycled bytes.
// Under -race the scribble also flags any concurrent reader.
func TestTCPPoisonCatchesRetainedFrame(t *testing.T) {
	ret := &retainer{seen: make(chan struct{}, 4)}
	tcps := make([]*TCP, 2)
	addrs := make([]string, 2)
	for i := range tcps {
		tt, err := NewTCP(TCPConfig{Self: i, Listen: "127.0.0.1:0",
			Peers: make([]string, 2), poisonAliasedReads: true})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tt
		addrs[i] = tt.Addr().String()
	}
	col := &collector{}
	for i, tt := range tcps {
		tt.SetPeers(addrs)
		if i == 1 {
			tt.SetHandler(ret.handle)
		} else {
			tt.SetHandler(col.handle)
		}
		if err := tt.Start(); err != nil {
			t.Fatal(err)
		}
		defer tt.Close()
	}
	payload := []byte("retained-payload")
	if err := tcps[0].Send(1, payload); err != nil {
		t.Fatal(err)
	}
	<-ret.seen
	// The poison scribble happens on the receive goroutine after the
	// handler returns; a second frame through the same connection proves
	// it has run (the read loop is strictly sequential per connection).
	if err := tcps[0].Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	<-ret.seen
	// Close both ends before inspecting: Close waits out the receive
	// goroutines, so the read below cannot race a later scribble — the
	// violator's -race experience, reproduced here race-cleanly.
	tcps[0].Close()
	tcps[1].Close()

	first := ret.retained[0]
	if bytes.Equal(first, payload) {
		t.Fatalf("retained frame still reads %q — poison mode did not scribble", first)
	}
	if first[len(first)-1] != 0xdd {
		t.Fatalf("retained frame tail reads %#x, want the 0xdd poison", first[len(first)-1])
	}
}

// TestTCPJumboFrameCopyPath sends a frame larger than the connection read
// buffer (256KB by default), which must take the copying path and arrive
// intact.
func TestTCPJumboFrameCopyPath(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	defer nodes[0].Close()
	defer nodes[1].Close()
	jumbo := make([]byte, 300<<10)
	for i := range jumbo {
		jumbo[i] = byte(i * 31)
	}
	if err := nodes[0].Send(1, jumbo); err != nil {
		t.Fatal(err)
	}
	got := cols[1].wait(t, 1)
	if got[0].data != string(jumbo) {
		t.Fatal("jumbo frame corrupted in flight")
	}
}

// TestTCPJumboFrameThenFlood sends a frame too large for the lane to keep
// its buffer, then floods the lane from many senders: the writer must not
// hand the buffer it is writing back to the senders, so every later frame
// still arrives intact and in order.
func TestTCPJumboFrameThenFlood(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	defer nodes[0].Close()
	defer nodes[1].Close()
	// A large first frame leaves the lane a spare buffer that holds much
	// of the flood without growing, so a writer that handed it out twice
	// would have senders append over the bytes it is writing.
	if err := nodes[0].Send(1, make([]byte, 512<<10)); err != nil {
		t.Fatal(err)
	}
	cols[1].wait(t, 1)
	jumbo := bytes.Repeat([]byte{'j'}, 2<<20)
	if err := nodes[0].Send(1, jumbo); err != nil {
		t.Fatal(err)
	}
	if got := cols[1].wait(t, 2); got[1].data != string(jumbo) {
		t.Fatal("jumbo frame corrupted in flight")
	}
	cols[1].mu.Lock()
	cols[1].frames = nil
	cols[1].mu.Unlock()
	checkBatchedFlood(t, func(f []byte) error { return nodes[0].Send(1, f) }, cols, 1<<10)
}

// TestTCPSameHostFabric verifies the Unix-domain fast path engages
// automatically for loopback peers: a pair on 127.0.0.1 must carry its
// frames over the advertised socket (SameHostConns > 0), and a pair with
// the fabric disabled must not.
func TestTCPSameHostFabric(t *testing.T) {
	nodes, cols := newTCPPair(t, nil)
	if err := nodes[0].Send(1, []byte("over-uds")); err != nil {
		t.Fatal(err)
	}
	if got := cols[1].wait(t, 1); got[0].data != "over-uds" {
		t.Fatalf("got %q", got[0].data)
	}
	if n := nodes[0].(*TCP).SameHostConns(); n == 0 {
		t.Fatal("loopback pair did not use the same-host fabric")
	}
	for _, n := range nodes {
		n.Close()
	}

	off, offCols := newTCPPair(t, func(c *TCPConfig) { c.DisableSameHost = true })
	defer off[0].Close()
	defer off[1].Close()
	if err := off[0].Send(1, []byte("over-tcp")); err != nil {
		t.Fatal(err)
	}
	if got := offCols[1].wait(t, 1); got[0].data != "over-tcp" {
		t.Fatalf("got %q", got[0].data)
	}
	if n := off[0].(*TCP).SameHostConns(); n != 0 {
		t.Fatalf("DisableSameHost pair counted %d same-host conns", n)
	}
}

// TestTCPSameHostStaleSocket plants a dead socket file at a port's
// advertised path: bind must clear it, and the fabric must still engage.
func TestTCPSameHostStaleSocket(t *testing.T) {
	// First transport binds, advertises, and dies without cleanup
	// (simulated by closing the TCP side only after grabbing the path).
	tt, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: make([]string, 2)})
	if err != nil {
		t.Fatal(err)
	}
	addr := tt.Addr().String()
	tt.Close()
	// Close removed the socket; plant a stale one at the same path the
	// way a SIGKILLed process would leave it.
	path := sameHostPath(addr)
	if path == "" {
		t.Fatalf("no same-host path for %s", addr)
	}
	ln, err := listenSameHost(tt.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ln.(interface{ SetUnlinkOnClose(bool) }).SetUnlinkOnClose(false)
	ln.Close() // leaves the file behind

	// A successor on the same port must remove the corpse and bind.
	t2, err := NewTCP(TCPConfig{Self: 0, Listen: addr, Peers: make([]string, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	if t2.shm == nil {
		t.Fatal("successor did not bind the same-host listener over the stale socket")
	}
}

// TestTCPLanesCloseUnblocks verifies Close wakes a sender waiting at the
// bound of any lane: it returns ErrClosed instead of waiting for a writer
// whose peer never reads.
func TestTCPLanesCloseUnblocks(t *testing.T) {
	tt := newStalledTCP(t, func(c *TCPConfig) { c.Lanes = 2 })
	l, _ := stallLane(t, tt, 1)
	fillLane(t, tt, l, 1)
	done := make(chan error, 1)
	go func() { done <- tt.SendLane(1, 1, []byte("stuck")) }()
	waitLane(t, l, func() bool { return l.backpressured == 1 })
	tt.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting send returned %v after Close, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a sender waiting at the lane bound")
	}
}
