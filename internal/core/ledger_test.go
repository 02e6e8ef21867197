package core

// The oracle for the in-flight ledger (see distState.snapshot): with a test
// deciding the fate of each outbound parcel frame, the per-peer totals alone
// must say whether a parcel is in flight — the sender holds no work unit for
// a frame the wire has taken, and nothing is ever sent back for one.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// What a ledgerWire does with an outbound frame of a given kind.
const (
	wirePass   = iota // hand it to the fabric
	wirePark          // accept it, and hold it until release
	wireRefuse        // fail the Send, as a broken connection does
)

// ledgerWire wraps one fabric endpoint of a two-node machine.
type ledgerWire struct {
	transport.Transport

	mu     sync.Mutex
	fate   [frameKindEnd]int
	parked [][]byte                  // frames accepted and held back
	onSend func(kind byte, fate int) // sees every frame handed to Send, on the sender's goroutine
}

func (w *ledgerWire) Send(node int, frame []byte) error {
	kind := frame[0]
	w.mu.Lock()
	fate, onSend := w.fate[kind], w.onSend
	if fate == wirePark {
		// The sender reuses its buffer once Send returns.
		w.parked = append(w.parked, append([]byte(nil), frame...))
	}
	w.mu.Unlock()
	if onSend != nil {
		onSend(kind, fate)
	}
	switch fate {
	case wirePark:
		return nil
	case wireRefuse:
		return errors.New("ledger test: connection refused")
	}
	return w.Transport.Send(node, frame)
}

// AddPeer makes the wire a transport.MemberTransport, which is what engages
// the membership layer; this machine never grows.
func (w *ledgerWire) AddPeer(int, string, int, int) error {
	return errors.New("ledger test: fixed machine")
}

// set fixes the fate of the given frame kinds from here on.
func (w *ledgerWire) set(fate int, kinds ...byte) {
	w.mu.Lock()
	for _, k := range kinds {
		w.fate[k] = fate
	}
	w.mu.Unlock()
}

func (w *ledgerWire) observe(onSend func(kind byte, fate int)) {
	w.mu.Lock()
	w.onSend = onSend
	w.mu.Unlock()
}

// release passes every kind again and sends the parked frames on to the
// other node, each through edit first when there is one.
func (w *ledgerWire) release(t *testing.T, edit func([]byte) []byte) {
	t.Helper()
	w.mu.Lock()
	w.fate = [frameKindEnd]int{}
	parked := w.parked
	w.parked = nil
	w.mu.Unlock()
	for _, frame := range parked {
		if edit != nil {
			frame = edit(frame)
		}
		if err := w.Transport.Send(1-w.Self(), frame); err != nil {
			t.Fatalf("releasing a parked frame: %v", err)
		}
	}
}

// ledgerMachine is the interning tests' two-node machine over ledger wires.
type ledgerMachine struct {
	rts   [2]*Runtime
	wires [2]*ledgerWire
}

// startLedgerMachine also runs one call from node 0 to an object on node 1
// to completion: the reply arrives behind node 1's hello, so node 0's
// parcels are interned (fParcelI) from then on, and the totals the cases
// compare start non-zero.
func startLedgerMachine(t *testing.T) (m *ledgerMachine, obj agas.GID) {
	t.Helper()
	m = &ledgerMachine{}
	fab := transport.NewFabric(2)
	for i := range m.wires {
		m.wires[i] = &ledgerWire{Transport: fab.Node(i)}
	}
	m.rts = startInternPair(t, [2]transport.Transport{m.wires[0], m.wires[1]})
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

// waitBlocked starts Wait on node 0 and checks that it has not returned
// three probe waves later: Wait returns on two agreeing waves, so a third
// one starting means the first two did not satisfy it. The channel closes
// once Wait returns.
func (m *ledgerMachine) waitBlocked(t *testing.T) <-chan struct{} {
	t.Helper()
	probed := make(chan struct{}, 1) // a token per wave node 0 starts, extras dropped
	m.wires[0].observe(func(kind byte, _ int) {
		if kind == fDrain {
			select {
			case probed <- struct{}{}:
			default:
			}
		}
	})
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
	m.wires[0].set(wirePark, fParcel, fParcelI)
	fut := m.rts[0].CallFrom(0, obj, "intern.echo", nil)
	if n := m.rts[0].pending.Load(); n != 0 {
		t.Fatalf("sender holds %d work units for a parcel the wire has taken", n)
	}
	m.wantInFlight(t, 1)
	done := m.waitBlocked(t)

	m.wires[0].release(t, nil)
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
	m.wires[0].set(wirePark, fParcel, fParcelI)
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
	m.wires[0].set(wirePark, fParcel, fParcelI)
	m.rts[0].SendFrom(0, parcel.New(obj, "intern.echo", nil))
	m.wires[1].observe(func(kind byte, _ int) {
		if kind != fDrain && kind != fDrainReply && kind != fBeat {
			t.Errorf("node 1 sent a %s frame; a parcel is answered by nothing", kindOf(kind).name)
		}
	})
	m.wires[0].release(t, func(frame []byte) []byte {
		if frame[0] != fParcelI {
			t.Fatalf("parked frame is kind %d, want fParcelI", frame[0])
		}
		return frame[:len(frame)/2]
	})
	m.wait(t) // returns only if node 1 counted the frame

	var recorded bool
	for _, err := range m.rts[1].Errors() {
		recorded = recorded || strings.Contains(err.Error(), "bad fParcelI frame")
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
	note := func(byte, int) {
		sent, recv := d.liveTotals()
		seen = append(seen, [2]uint64{sent, recv})
	}
	accepted := m.rts[0].Metrics().Snapshot()["px.wire.sent"]
	note(0, 0)
	m.wires[0].set(wireRefuse, fParcel, fParcelI)
	m.wires[0].observe(note) // mid-refusal, and on this goroutine: CallFrom sends synchronously
	_, err := m.rts[0].CallFrom(0, obj, "intern.echo", nil).Get()
	if err == nil || !strings.Contains(err.Error(), "transport to node 1") {
		t.Fatalf("refused call: %v, want the transport error", err)
	}
	m.wires[0].observe(nil)
	note(0, 0)

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
	m.wires[0].release(t, nil)
	m.stop(t)
}
