package core

// The oracle for the in-flight ledger (see distState.snapshot): with a test
// deciding the fate of each outbound parcel frame, the per-peer totals alone
// must say whether a parcel is in flight — the sender holds no work unit for
// a frame the wire has taken, and nothing is ever sent back for one.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ledgerMachine is the interning tests' two-node machine over ledger wires.
type ledgerMachine struct {
	rts   [2]*Runtime
	wires [2]*transport.Faulty
}

// hold holds node's parcel frames from here on and passes the rest. The
// channel it returns gets a token, extras dropped, for each frame of a
// kind in signal.
func (m *ledgerMachine) hold(node int, signal ...byte) <-chan struct{} {
	c := make(chan struct{}, 1)
	m.wires[node].SetRule(func(_ int, frame []byte) transport.Fate {
		if bytes.IndexByte(signal, frame[0]) >= 0 {
			select {
			case c <- struct{}{}:
			default:
			}
		}
		if frame[0] == wire.Parcel {
			return transport.Hold
		}
		return transport.Pass
	})
	return c
}

// release passes every frame from node again and sends its held frames on
// to the other node, each through edit first when there is one.
func (m *ledgerMachine) release(t *testing.T, node int, edit func([]byte) []byte) {
	t.Helper()
	m.wires[node].SetRule(nil)
	if err := m.wires[node].Release(edit); err != nil {
		t.Fatalf("releasing a held frame: %v", err)
	}
}

// startLedgerMachine puts each node's wire behind a reader guard. It also
// runs one call from node 0 to an object on node 1 to completion: the
// reply arrives behind node 1's hello, so node 0's parcels name actions by
// table position from then on, and the totals the cases compare start
// non-zero.
func startLedgerMachine(t *testing.T) (m *ledgerMachine, obj agas.GID) {
	t.Helper()
	m = &ledgerMachine{}
	fab := transport.NewFabric(2)
	for i := range m.wires {
		m.wires[i] = &transport.Faulty{Transport: fab.Node(i)}
	}
	m.rts = startInternPair(t, [2]transport.Transport{guardReader(t, m.wires[0]), guardReader(t, m.wires[1])})
	obj = m.rts[1].NewDataAt(2, int64(42))
	m.wantEcho(t, m.rts[0].CallFrom(0, obj, "intern.echo", nil))
	m.wait(t)
	return m, obj
}

// wantEcho checks that a call to the object on node 1 ran there.
func (m *ledgerMachine) wantEcho(t *testing.T, fut *lco.Future) {
	t.Helper()
	if v, err := fut.Get(); err != nil || v.(int64) != 42 {
		t.Fatalf("call to node 1: %v, %v; want 42", v, err)
	}
}

// wait returns once both nodes see the machine quiescent, and checks the
// ledger then balances from either node's point of view.
func (m *ledgerMachine) wait(t *testing.T) {
	t.Helper()
	for _, rt := range m.rts {
		rt.Wait()
	}
	m.wantInFlight(t, 0)
}

// stop is wait, then a clean shutdown of both nodes.
func (m *ledgerMachine) stop(t *testing.T) {
	t.Helper()
	m.wait(t)
	for _, rt := range m.rts {
		rt.Shutdown()
	}
}

// wantInFlight checks that a probe wave from either node finds every node
// idle and exactly n parcels sent but not received.
func (m *ledgerMachine) wantInFlight(t *testing.T, n uint64) {
	t.Helper()
	for i, rt := range m.rts {
		allZero, sent, recv, ok := rt.dist.probe()
		if !ok || !allZero || sent != recv+n {
			t.Fatalf("probe from node %d: idle=%v sent=%d recv=%d ok=%v, want idle with %d in flight",
				i, allZero, sent, recv, ok, n)
		}
	}
}

// waitBlocked starts Wait on node 0, whose parcels are held, and checks
// that it has not returned three probe waves later: Wait returns on two
// agreeing waves, so a third one starting means the first two did not
// satisfy it. The channel closes once Wait returns.
func (m *ledgerMachine) waitBlocked(t *testing.T) <-chan struct{} {
	t.Helper()
	probed := m.hold(0, wire.Drain) // a token per wave node 0 starts
	done := make(chan struct{})
	go func() {
		m.rts[0].Wait()
		close(done)
	}()
	for wave := 0; wave < 3; wave++ {
		select {
		case <-probed:
		case <-done:
			t.Fatal("Wait returned with a parcel in flight")
		}
	}
	return done
}

// TestLedgerParcelInFlight: a parcel the wire has taken but not delivered is
// held by no work unit anywhere — the totals alone keep Wait from returning.
func TestLedgerParcelInFlight(t *testing.T) {
	m, obj := startLedgerMachine(t)
	m.hold(0)
	fut := m.rts[0].CallFrom(0, obj, "intern.echo", nil)
	if n := m.rts[0].pending.Load(); n != 0 {
		t.Fatalf("sender holds %d work units for a parcel the wire has taken", n)
	}
	m.wantInFlight(t, 1)
	done := m.waitBlocked(t)

	m.release(t, 0, nil)
	m.wantEcho(t, fut)
	<-done
	m.stop(t)
}

// TestLedgerDeathWithParcelInFlight: a trigger is a parcel like any other.
// Parked on the wire beside a call, it holds no work unit and the totals
// alone keep Wait from returning; the receiver's death takes its lane out
// of the sums, which is all either lost parcel needs.
func TestLedgerDeathWithParcelInFlight(t *testing.T) {
	m, obj := startLedgerMachine(t)
	remote := m.rts[1].NewDistFutureAt(2)
	m.hold(0)
	fut := m.rts[0].CallFrom(0, obj, "intern.echo", nil) // its reply slot waits on node 1
	if err := m.rts[0].SetLCO(0, remote, int64(1)); err != nil {
		t.Fatal(err)
	}
	if n := m.rts[0].pending.Load(); n != 0 {
		t.Fatalf("sender holds %d work units for parcels the wire has taken", n)
	}
	m.wantInFlight(t, 2)
	done := m.waitBlocked(t)

	m.rts[1].Terminate()
	m.rts[0].dist.mb.declareDead(1, "ledger test")
	if _, err := fut.Get(); !IsNodeLost(err) {
		t.Fatalf("call stranded on the dead node: %v, want the node-lost verdict", err)
	}
	<-done
	for _, err := range m.rts[0].Errors() {
		if !strings.Contains(err.Error(), "node 1 declared dead") {
			t.Fatalf("node 0 recorded %v; the death verdict is all it should record", err)
		}
	}
	m.rts[0].Shutdown()
}

// TestLedgerCountsUndecodableParcel: a parcel frame that fails to decode is
// still a frame the sender counted, so the receiver counts it too — and, as
// for any parcel, sends nothing back.
func TestLedgerCountsUndecodableParcel(t *testing.T) {
	m, obj := startLedgerMachine(t)
	m.hold(0)
	m.rts[0].SendFrom(0, parcel.New(obj, "intern.echo", nil))
	m.wires[1].SetRule(func(_ int, frame []byte) transport.Fate {
		if kind := frame[0]; kind != wire.Drain && kind != wire.DrainReply && kind != wire.Beat {
			t.Errorf("node 1 sent a kind %d frame; a parcel is answered by nothing", kind)
		}
		return transport.Pass
	})
	m.release(t, 0, func(frame []byte) []byte {
		if frame[0] != wire.Parcel {
			t.Fatalf("held frame is kind %d, want fParcel", frame[0])
		}
		return frame[:len(frame)/2]
	})
	m.wait(t) // returns only if node 1 counted the frame

	var recorded bool
	for _, err := range m.rts[1].Errors() {
		recorded = recorded || strings.Contains(err.Error(), "bad fParcel frame")
	}
	if !recorded {
		t.Fatalf("node 1 did not record the bad frame: %v", m.rts[1].Errors())
	}
	m.stop(t)
}

// TestLedgerRefusedSendKeepsTotalsMonotone: a send the transport refuses is
// booked as received back on its own lane, never subtracted — no reading of
// the totals, even one taken mid-refusal, is below an earlier one — and the
// parcel's continuation still hears the error.
func TestLedgerRefusedSendKeepsTotalsMonotone(t *testing.T) {
	m, obj := startLedgerMachine(t)
	d := m.rts[0].dist
	var seen [][2]uint64
	note := func() {
		sent, recv := d.liveTotals()
		seen = append(seen, [2]uint64{sent, recv})
	}
	accepted := m.rts[0].Metrics().Snapshot()["px.wire.sent"]
	note()
	// The rule notes mid-refusal, on this goroutine: CallFrom sends
	// synchronously.
	m.wires[0].SetRule(func(_ int, frame []byte) transport.Fate {
		if frame[0] == wire.Parcel {
			note()
			return transport.Refuse
		}
		return transport.Pass
	})
	_, err := m.rts[0].CallFrom(0, obj, "intern.echo", nil).Get()
	if err == nil || !strings.Contains(err.Error(), "transport to node 1") {
		t.Fatalf("refused call: %v, want the transport error", err)
	}
	m.wires[0].SetRule(nil)
	note()

	for i := 1; i < len(seen); i++ {
		if seen[i][0] < seen[i-1][0] || seen[i][1] < seen[i-1][1] {
			t.Fatalf("totals decreased across the refusal: %v", seen)
		}
	}
	first, last := seen[0], seen[len(seen)-1]
	if len(seen) < 3 || last != [2]uint64{first[0] + 1, first[1] + 1} {
		t.Fatalf("totals across the refusal: %v, want one more on each side at the end", seen)
	}
	if got := m.rts[0].Metrics().Snapshot()["px.wire.sent"]; got != accepted {
		t.Fatalf("px.wire.sent went %v -> %v over a frame the transport refused", accepted, got)
	}
	m.stop(t)
}

// cutLink relays TCP connections from its own address to target until cut;
// then it closes every relayed connection and refuses new ones: a link
// between two live nodes that breaks and stays broken.
type cutLink struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
	isCut  bool
}

func newCutLink(t *testing.T, target string) *cutLink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &cutLink{ln: ln, target: target}
	go c.serve()
	return c
}

func (c *cutLink) serve() {
	for {
		in, err := c.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", c.target)
		if err != nil {
			in.Close()
			continue
		}
		c.mu.Lock()
		if c.isCut {
			in.Close()
			out.Close()
		}
		c.conns = append(c.conns, in, out)
		c.mu.Unlock()
		go io.Copy(out, in)
		go io.Copy(in, out)
	}
}

func (c *cutLink) cut() {
	c.ln.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.isCut = true
	for _, conn := range c.conns {
		conn.Close()
	}
}

// startCutPair starts two nodes over loopback TCP, node 0's link to node 1
// running through a cutLink, with fast failure detection and intern.echo
// (answer the target) plus register's actions registered.
func startCutPair(t *testing.T, workers int, register func(*Runtime)) ([2]*Runtime, *cutLink) {
	var tcps [2]*transport.TCP
	addrs := make([]string, 2)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2), DisableSameHost: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i], addrs[i] = tr, tr.Addr().String()
	}
	link := newCutLink(t, addrs[1])
	tcps[0].SetPeers([]string{addrs[0], link.ln.Addr().String()})
	tcps[1].SetPeers(addrs)
	var rts [2]*Runtime
	for i := range rts {
		rts[i] = New(Config{
			Transport:          tcps[i],
			NodeID:             i,
			NodeLocalities:     internRanges,
			WorkersPerLocality: workers,
			Membership:         MembershipConfig{HeartbeatInterval: 10 * time.Millisecond, DeadAfter: 250 * time.Millisecond},
			Register: func(rt *Runtime) {
				rt.MustRegisterAction("intern.echo", func(_ *Context, target any, _ *parcel.Reader) (any, error) {
					return target, nil
				})
				if register != nil {
					register(rt)
				}
			},
		})
	}
	return rts, link
}

// TestLedgerUnreachablePeerGetsVerdict: when the link from node 0 to a
// live node 1 breaks and the redial is refused, node 0's lane drops what
// it holds and reports node 1 unreachable. The death verdict that follows
// settles everything that waited on the lost frames: the call fails with
// the node-lost error, a migration to node 1 rolls back well inside its
// verdict bound, and Wait returns.
func TestLedgerUnreachablePeerGetsVerdict(t *testing.T) {
	rts, link := startCutPair(t, 2, nil)
	obj := rts[1].NewDataAt(2, int64(42))
	if v, err := rts[0].CallFrom(0, obj, "intern.echo", nil).Get(); err != nil || v.(int64) != 42 {
		t.Fatalf("call over the live link: %v, %v; want 42", v, err)
	}
	mine := rts[0].NewDataAt(0, int64(7))

	link.cut()
	called := make(chan error, 1)
	fut := rts[0].CallFrom(0, obj, "intern.echo", nil)
	go func() {
		_, err := fut.Get()
		called <- err
	}()
	migrated := make(chan error, 1)
	go func() { migrated <- rts[0].Migrate(mine, 2) }()
	for _, op := range []struct {
		what string
		done chan error
	}{{"call", called}, {"migration", migrated}} {
		select {
		case err := <-op.done:
			if !IsNodeLost(err) {
				t.Fatalf("%s across the broken link: %v, want the node-lost verdict", op.what, err)
			}
		case <-time.After(migrateVerdictBound / 2):
			t.Fatalf("%s across the broken link is still waiting", op.what)
		}
	}
	if v, err := rts[0].CallFrom(0, mine, "intern.echo", nil).Get(); err != nil || v.(int64) != 7 {
		t.Fatalf("the object whose migration failed: %v, %v; want it back home answering 7", v, err)
	}
	waited := make(chan struct{})
	go func() {
		rts[0].Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after the verdict")
	}
	if errs := fmt.Sprint(rts[0].Errors()); !strings.Contains(errs, "node 1 declared dead (unreachable") {
		t.Fatalf("node 0 recorded %s, want node 1 declared dead as unreachable", errs)
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
}

// TestMigrationFromActionHearsDeath: a Migrate inside an action, on a
// locality whose one worker that action holds, toward a node whose link
// then breaks. The death verdict must reach the blocked Migrate itself —
// no task on that locality could run to deliver it — so the move ends
// node-lost well inside its verdict bound and the object answers at home.
func TestMigrationFromActionHearsDeath(t *testing.T) {
	rts, link := startCutPair(t, 1, func(rt *Runtime) {
		rt.MustRegisterAction("cut.move", func(ctx *Context, _ any, args *parcel.Reader) (any, error) {
			g, to := args.GID(), int(args.Int64())
			if err := args.Err(); err != nil {
				return nil, err
			}
			return nil, ctx.Runtime().Migrate(g, to)
		})
	})
	mine := rts[0].NewDataAt(0, int64(7))
	obj := rts[1].NewDataAt(2, int64(42))
	if v, err := rts[0].CallFrom(0, obj, "intern.echo", nil).Get(); err != nil || v.(int64) != 42 {
		t.Fatalf("call over the live link: %v, %v; want 42", v, err)
	}

	link.cut()
	move := rts[0].CallFrom(0, rts[0].LocalityGID(0), "cut.move", parcel.NewArgs().GID(mine).Int64(2).Encode())
	select {
	case <-move.Done():
		if _, err := move.Get(); !IsNodeLost(err) {
			t.Fatalf("migration from an action across the broken link: %v, want the node-lost verdict", err)
		}
	case <-time.After(migrateVerdictBound / 2):
		t.Fatal("migration from an action across the broken link is still waiting")
	}
	if v, err := rts[0].CallFrom(0, mine, "intern.echo", nil).Get(); err != nil || v.(int64) != 7 {
		t.Fatalf("the object whose migration failed: %v, %v; want it back home answering 7", v, err)
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
}
