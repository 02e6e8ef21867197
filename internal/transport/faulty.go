package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// Fate is a Faulty rule's verdict on one outbound frame.
type Fate int

const (
	Pass   Fate = iota // hand the frame to the wrapped endpoint
	Hold               // take the frame, and keep it until Release
	Refuse             // fail the send: the frame is not taken
)

// Faulty wraps one node's endpoint and injects faults into the frames that
// cross it. A kill or a cut flips at an exact frame count, so a failing
// chaos run replays from its counts. A killed node keeps running but goes
// mute, as a kill -9 looks from outside; a cut link stays cut. A silenced
// outbound frame is reported taken: the network ate it. Lanes, loss
// reports, the listen address and AddPeer forward to the wrapped endpoint;
// on a fixed machine AddPeer refuses, which still engages membership.
type Faulty struct {
	Transport
	// KillAfter, when positive, mutes the node once that many frames have
	// crossed its boundary, in or out: frame KillAfter passes, every later
	// one is silenced. CutAfter, when positive, cuts the link to CutPeer
	// the same way, counting the frames across it. Set them before Start.
	KillAfter, CutPeer, CutAfter int

	silenced    atomic.Uint64
	rule        atomic.Pointer[func(node int, frame []byte) Fate]
	verdicts    sync.RWMutex // read-held from a rule's call to its Hold landing in held
	mu          sync.Mutex
	kills, cuts int
	held        []heldFrame
}

type heldFrame struct {
	node, lane int
	frame      []byte
}

// SetRule installs the verdict on each outbound frame not silenced; nil
// passes all. The rule runs on the sender's goroutine and must neither
// keep frame nor call Release.
func (f *Faulty) SetRule(rule func(node int, frame []byte) Fate) { f.rule.Store(&rule) }

// Release sends the held frames on in send order, each through edit first
// when edit is not nil. No rule or count sees them again. It waits for
// verdicts in progress, so a frame whose rule has returned Hold, or has
// signalled the caller from inside, is among those released.
func (f *Faulty) Release(edit func([]byte) []byte) error {
	f.verdicts.Lock()
	f.verdicts.Unlock()
	f.mu.Lock()
	held := f.held
	f.held = nil
	f.mu.Unlock()
	for _, h := range held {
		if edit != nil {
			h.frame = edit(h.frame)
		}
		if err := f.sendLane(h.node, h.lane, h.frame); err != nil {
			return err
		}
	}
	return nil
}

// Silenced reports the frames a kill or a cut has dropped.
func (f *Faulty) Silenced() uint64 { return f.silenced.Load() }

// silence counts one frame between this node and peer, either way, and
// reports whether an armed kill or cut drops it.
func (f *Faulty) silence(peer int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills++
	cut := peer == f.CutPeer
	if cut {
		f.cuts++
	}
	mute := (f.KillAfter > 0 && f.kills > f.KillAfter) || (cut && f.CutAfter > 0 && f.cuts > f.CutAfter)
	if mute {
		f.silenced.Add(1)
	}
	return mute
}

// intercept counts one outbound frame and applies the rule: taken reports
// a frame silenced or held, err a frame refused.
func (f *Faulty) intercept(node, lane int, frame []byte) (taken bool, err error) {
	if f.silence(node) {
		return true, nil
	}
	rule := f.rule.Load()
	if rule == nil || *rule == nil {
		return false, nil
	}
	f.verdicts.RLock()
	defer f.verdicts.RUnlock()
	switch (*rule)(node, frame) {
	case Hold:
		f.mu.Lock()
		f.held = append(f.held, heldFrame{node, lane, append([]byte(nil), frame...)})
		f.mu.Unlock()
		return true, nil
	case Refuse:
		return false, errors.New("transport: frame refused by rule")
	}
	return false, nil
}

// SetHandler installs h behind the injector: a silenced inbound frame
// never reaches it.
func (f *Faulty) SetHandler(h Handler) {
	f.Transport.SetHandler(func(from int, frame []byte) {
		if !f.silence(from) {
			h(from, frame)
		}
	})
}

// Send sends by the wrapped endpoint's Send, which never waits.
func (f *Faulty) Send(node int, frame []byte) error {
	if taken, err := f.intercept(node, 0, frame); taken || err != nil {
		return err
	}
	return f.Transport.Send(node, frame)
}

// SendLane sends on the wrapped endpoint's lane, or by its Send when it has
// no lanes.
func (f *Faulty) SendLane(node, lane int, frame []byte) error {
	if taken, err := f.intercept(node, lane, frame); taken || err != nil {
		return err
	}
	return f.sendLane(node, lane, frame)
}

// TrySendLane is SendLane that refuses a full lane instead of waiting; on
// an endpoint without lanes it is Send, which never waits.
func (f *Faulty) TrySendLane(node, lane int, frame []byte) error {
	if taken, err := f.intercept(node, lane, frame); taken || err != nil {
		return err
	}
	if lt, ok := f.Transport.(LaneTransport); ok {
		return lt.TrySendLane(node, lane, frame)
	}
	return f.Transport.Send(node, frame)
}

func (f *Faulty) sendLane(node, lane int, frame []byte) error {
	if lt, ok := f.Transport.(LaneTransport); ok {
		return lt.SendLane(node, lane, frame)
	}
	return f.Transport.Send(node, frame)
}

// Lanes reports the wrapped endpoint's lane count, 1 when it has no lanes.
func (f *Faulty) Lanes() int {
	if lt, ok := f.Transport.(LaneTransport); ok {
		return lt.Lanes()
	}
	return 1
}

// AddPeer forwards to the wrapped endpoint, and refuses on a fixed machine.
func (f *Faulty) AddPeer(node int, addr string, lo, hi int) error {
	if mt, ok := f.Transport.(MemberTransport); ok {
		return mt.AddPeer(node, addr, lo, hi)
	}
	return errors.New("transport: fixed machine")
}

// SetUnreachableHandler forwards to the wrapped endpoint if it reports loss.
func (f *Faulty) SetUnreachableHandler(h func(node int)) {
	if lt, ok := f.Transport.(LossTransport); ok {
		lt.SetUnreachableHandler(h)
	}
}

// Addr reports the wrapped endpoint's listen address, nil when it has none.
func (f *Faulty) Addr() net.Addr {
	if a, ok := f.Transport.(interface{ Addr() net.Addr }); ok {
		return a.Addr()
	}
	return nil
}
