package transport

import (
	"fmt"
	"testing"
	"time"
)

// faultyFabric starts a 3-node fabric with node 0's endpoint behind f.
func faultyFabric(t *testing.T, f *Faulty) ([]Transport, []*collector) {
	t.Helper()
	fab := NewFabric(3)
	f.Transport = fab.Node(0)
	nodes := []Transport{f, fab.Node(1), fab.Node(2)}
	cols := make([]*collector, 3)
	for i, n := range nodes {
		cols[i] = &collector{}
		n.SetHandler(cols[i].handle)
		if err := n.Start(); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		t.Cleanup(func() { n.Close() })
	}
	return nodes, cols
}

func sendAll(t *testing.T, tr Transport, to int, frames ...string) {
	t.Helper()
	for _, frame := range frames {
		if err := tr.Send(to, []byte(frame)); err != nil {
			t.Fatalf("send %q to node %d: %v", frame, to, err)
		}
	}
}

// received waits for n frames at c and lists every frame it holds.
func received(t *testing.T, c *collector, n int) string {
	t.Helper()
	var got []string
	for _, f := range c.wait(t, n) {
		got = append(got, f.data)
	}
	return fmt.Sprint(got)
}

// TestFaultyKillAndCutAreDeterministic: a kill and a cut count frames and
// flip at an exact count, so two injectors armed alike silence exactly the
// same frames — what makes a failing chaos run replay from its counts.
func TestFaultyKillAndCutAreDeterministic(t *testing.T) {
	run := func() (verdicts []bool) {
		f := &Faulty{KillAfter: 5, CutPeer: 1, CutAfter: 3}
		for i := 0; i < 20; i++ {
			verdicts = append(verdicts, f.silence(i%3))
		}
		return verdicts
	}
	if a, b := run(), run(); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("injectors armed alike diverged: %v vs %v", a, b)
	}

	// Killed after 3 frames: two out and one in pass, and from the fourth
	// on every frame, either way, is silenced.
	kill := &Faulty{KillAfter: 3}
	nodes, cols := faultyFabric(t, kill)
	sendAll(t, kill, 1, "out1", "out2")
	sendAll(t, nodes[1], 0, "in3")
	received(t, cols[0], 1)
	sendAll(t, nodes[1], 0, "in4")
	for deadline := time.Now().Add(5 * time.Second); kill.Silenced() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fourth frame was never silenced")
		}
	}
	sendAll(t, kill, 2, "out5")
	sendAll(t, nodes[1], 2, "mark")
	if got := received(t, cols[2], 1) + received(t, cols[1], 2) + received(t, cols[0], 1); got != "[mark][out1 out2][in3]" {
		t.Fatalf("nodes 2, 1 and 0 received %s", got)
	}
	if n := kill.Silenced(); n != 2 {
		t.Fatalf("silenced %d frames, want 2", n)
	}

	// Node 0's link to node 1 cut after 2: the third frame on it is
	// silenced, and the link to node 2 is never touched.
	cut := &Faulty{CutPeer: 1, CutAfter: 2}
	nodes, cols = faultyFabric(t, cut)
	sendAll(t, cut, 1, "a", "b", "c", "d")
	sendAll(t, cut, 2, "a", "b", "c", "d")
	sendAll(t, nodes[2], 1, "mark")
	if got := received(t, cols[1], 3) + received(t, cols[2], 4); got != "[a b mark][a b c d]" {
		t.Fatalf("nodes 1 and 2 received %s", got)
	}
	if n := cut.Silenced(); n != 2 {
		t.Fatalf("silenced %d frames, want 2", n)
	}
}

// TestFaultyRule: a held frame is taken, and arrives in send order, edited,
// on Release; a refused frame fails its Send and never arrives.
func TestFaultyRule(t *testing.T) {
	f := &Faulty{}
	_, cols := faultyFabric(t, f)
	f.SetRule(func(_ int, frame []byte) Fate {
		return map[byte]Fate{'h': Hold, 'r': Refuse}[frame[0]]
	})
	if err := f.Send(1, []byte("r1")); err == nil {
		t.Fatal("a refused frame was taken")
	}
	sendAll(t, f, 1, "h1", "p1", "h2", "h3")
	received(t, cols[1], 1)
	if err := f.Release(func(b []byte) []byte { return append(b, '!') }); err != nil {
		t.Fatal(err)
	}
	f.SetRule(nil)
	sendAll(t, f, 1, "r2")
	if got := received(t, cols[1], 5); got != "[p1 h1! h2! h3! r2]" {
		t.Fatalf("node 1 received %s", got)
	}
}

// TestFaultyKeepsTCPSurface: a wrapped TCP endpoint keeps its lanes, both
// lane sends and its listen address; a wrapped fabric endpoint has one lane, no address, and
// a fixed machine.
func TestFaultyKeepsTCPSurface(t *testing.T) {
	nodes, cols := newTCPPair(t, func(c *TCPConfig) { c.Lanes = 3 })
	defer nodes[0].Close()
	defer nodes[1].Close()
	tcp := nodes[0].(*TCP)
	f := &Faulty{Transport: tcp}
	if f.Lanes() != 3 || f.Addr().String() != tcp.Addr().String() {
		t.Fatalf("wrapped TCP reports %d lanes at %v, want 3 at %v", f.Lanes(), f.Addr(), tcp.Addr())
	}
	if err := f.SendLane(1, 2, []byte("lane2")); err != nil {
		t.Fatal(err)
	}
	if err := f.TrySendLane(1, 1, []byte("lane1")); err != nil {
		t.Fatal(err)
	}
	if got := received(t, cols[1], 2); got != "[lane2 lane1]" && got != "[lane1 lane2]" {
		t.Fatalf("node 1 received %s", got)
	}

	fab := &Faulty{Transport: NewFabric(2).Node(0)}
	if fab.Lanes() != 1 || fab.Addr() != nil || fab.AddPeer(2, "", 0, 1) == nil {
		t.Fatalf("wrapped fabric: %d lanes, address %v, AddPeer accepted", fab.Lanes(), fab.Addr())
	}
}
