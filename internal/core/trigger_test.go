package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// triggerSurface is a 2-node fabric machine for driving the px.lco.*
// actions across the wire: triggers are sent from node 0 (locality 0)
// to LCOs hosted on node 1 (locality 2).
type triggerSurface struct {
	t   *testing.T
	rts [2]*Runtime
}

func newTriggerSurface(t *testing.T) *triggerSurface {
	fab := transport.NewFabric(2)
	s := &triggerSurface{t: t}
	for i := range s.rts {
		s.rts[i] = New(Config{
			Transport:          fab.Node(i),
			NodeID:             i,
			NodeLocalities:     internRanges,
			WorkersPerLocality: 2,
			Register: func(r *Runtime) {
				r.MustRegisterAction("surface.seven", func(*Context, any, *parcel.Reader) (any, error) {
					return int64(7), nil
				})
				r.MustRegisterAction("surface.fail", func(*Context, any, *parcel.Reader) (any, error) {
					return nil, errors.New("deliberate failure")
				})
			},
		})
	}
	t.Cleanup(func() {
		for _, r := range s.rts {
			r.Shutdown()
		}
	})
	return s
}

// target creates an LCO of the named kind on node 1, sized for need
// triggers, and returns its name and a node-0 future that observes it:
// WaitLCO for a DistLCO, the future itself for a reply.
func (s *triggerSurface) target(kind string, need int) (agas.GID, *lco.Future) {
	host := s.rts[1]
	var g agas.GID
	switch kind {
	case "future":
		g = host.NewDistFutureAt(2)
	case "gate":
		g = host.NewDistGateAt(2, need)
	case "reduce":
		g = host.NewDistReduceAt(2, need, ReduceSum, int64(0))
	case "dataflow":
		g = host.NewDistDataflowAt(2, need, ReduceSum)
	case "reply":
		return host.NewFutureAt(2)
	case "hardware":
		return host.LocalityGID(3), nil
	default:
		s.t.Fatalf("unknown target kind %q", kind)
	}
	return g, s.rts[0].WaitLCO(0, g)
}

// send delivers one op to g from node 0 through the named built-in action.
// slot is the dataflow slot a supply fills; v the value the op carries.
func (s *triggerSurface) send(action string, op TrigOp, g agas.GID, slot uint32, v any) {
	r := s.rts[0]
	var p *parcel.Parcel
	switch action {
	case ActionLCOTrigger:
		if op == TrigSignal {
			r.SignalLCO(0, g)
			return
		}
		if err := r.triggerValue(0, g, op, slot, v); err != nil {
			s.t.Fatal(err)
		}
		return
	case ActionLCOFail:
		p = parcel.New(g, action, parcel.NewArgs().String(v.(string)).Encode())
	case ActionLCOSignal:
		p = parcel.New(g, action, nil)
	default:
		var err error
		// A fresh chain: the parent only lends its ID and shard.
		if p, err = parcel.AcquireValue(parcel.New(g, action, nil), g, action, v); err != nil {
			s.t.Fatal(err)
		}
	}
	r.SendFrom(0, p)
}

// surfaceAccepts lists, per trigger operation, the targets that take it.
var surfaceAccepts = map[TrigOp][]string{
	TrigSet:        {"future", "reply"},
	TrigFail:       {"future", "gate", "reduce", "dataflow", "reply"},
	TrigSignal:     {"gate"},
	TrigContribute: {"reduce"},
	TrigSupply:     {"dataflow"},
}

// surfaceActions maps each built-in LCO action to the operations it sends.
var surfaceActions = []struct {
	action string
	ops    []TrigOp
}{
	{ActionLCOSet, []TrigOp{TrigSet}},
	{ActionLCOFail, []TrigOp{TrigFail}},
	{ActionLCOSignal, []TrigOp{TrigSignal}},
	{ActionLCOContribute, []TrigOp{TrigContribute}},
	{ActionLCOTrigger, []TrigOp{TrigSet, TrigFail, TrigSignal, TrigContribute, TrigSupply}},
}

// TestTriggerSurface sends every built-in LCO action, across the wire, to
// every target that accepts it: a DistLCO future, gate, reduce and
// dataflow, and a reply future. Each resolves exactly — a two-trigger LCO
// is still one short after its first trigger — with the value its
// triggers determine. Every other pairing of operation and target records
// a typed error on the target's node and changes nothing.
func TestTriggerSurface(t *testing.T) {
	s := newTriggerSurface(t)
	for _, a := range surfaceActions {
		for _, op := range a.ops {
			for _, kind := range surfaceAccepts[op] {
				t.Run(fmt.Sprintf("%s/%s/%s", a.action, op, kind), func(t *testing.T) {
					s.t = t
					s.resolveExactly(a.action, op, kind)
				})
			}
		}
	}

	s.t = t
	kinds := []string{"future", "gate", "reduce", "dataflow", "reply", "hardware"}
	mismatches := 0
	for _, a := range surfaceActions {
		for _, op := range a.ops {
			for _, kind := range kinds {
				if accepts(op, kind) {
					continue
				}
				g, obs := s.target(kind, 2)
				var v any = int64(1)
				if op == TrigFail {
					v = "mismatch"
				}
				s.send(a.action, op, g, 0, v)
				s.rts[0].Wait()
				mismatches++
				switch {
				case kind == "reply":
					// The trigger spent the slot, so its error is the
					// reply's verdict.
					if _, err := obs.Get(); !errors.Is(err, ErrTriggerMismatch) {
						t.Errorf("%s %s to a reply: future got %v, want ErrTriggerMismatch", a.action, op, err)
					}
				case obs != nil:
					obj, _ := s.rts[1].LocalObject(2, g)
					want := 2
					if kind == "future" {
						want = 1
					}
					if left := obj.(*DistLCO).Pending(); left != want || obs.Resolved() {
						t.Errorf("%s %s to a %s: %d pending, resolved %v; want %d and false",
							a.action, op, kind, left, obs.Resolved(), want)
					}
					s.rts[1].FreeObject(g)
				}
			}
		}
	}
	errs := s.rts[1].Errors()
	if len(errs) != mismatches {
		t.Fatalf("node 1 recorded %d errors for %d mismatched triggers: %v", len(errs), mismatches, errs)
	}
	for _, err := range errs {
		if !errors.Is(err, ErrTriggerMismatch) {
			t.Errorf("mismatched trigger recorded %v, want ErrTriggerMismatch", err)
		}
	}
	if errs := s.rts[0].Errors(); len(errs) != 0 {
		t.Fatalf("node 0 recorded errors: %v", errs)
	}
}

func accepts(op TrigOp, kind string) bool {
	for _, k := range surfaceAccepts[op] {
		if k == kind {
			return true
		}
	}
	return false
}

// resolveExactly drives one accepted (action, op, target) pairing to
// resolution and checks the observed outcome.
func (s *triggerSurface) resolveExactly(action string, op TrigOp, kind string) {
	t := s.t
	need := 1
	if op == TrigSignal || op == TrigContribute || op == TrigSupply {
		need = 2
	}
	g, obs := s.target(kind, need)
	vals := []any{int64(3), int64(4)}
	if op == TrigFail {
		vals = []any{"deliberate"}
	}
	for i := 0; i < need; i++ {
		if i > 0 {
			s.rts[0].Wait()
			obj, _ := s.rts[1].LocalObject(2, g)
			if left := obj.(*DistLCO).Pending(); left != 1 || obs.Resolved() {
				t.Fatalf("after %d of %d triggers: %d pending, resolved %v", i, need, left, obs.Resolved())
			}
		}
		s.send(action, op, g, uint32(i), vals[i%len(vals)])
	}
	v, err := obs.Get()
	switch op {
	case TrigFail:
		if err == nil || !strings.Contains(err.Error(), "deliberate") {
			t.Fatalf("failed %s resolved %v, %v; want the failure message", kind, v, err)
		}
	case TrigSignal:
		if err != nil {
			t.Fatalf("gate: %v", err)
		}
	case TrigSet:
		if err != nil || v != int64(3) {
			t.Fatalf("%s = %v, %v; want 3", kind, v, err)
		}
	default:
		if err != nil || v != int64(7) {
			t.Fatalf("%s = %v, %v; want 7", kind, v, err)
		}
	}
	s.rts[0].Wait()
	if kind != "reply" {
		s.rts[1].FreeObject(g)
	}
}

// TestTriggerSurfaceContinuations: px.lco.set hands its value on to the
// next continuation, and an action failure reaches the DistLCO its
// continuation names, and that LCO's WaitLCO observer, with the message.
func TestTriggerSurfaceContinuations(t *testing.T) {
	s := newTriggerSurface(t)
	obj := s.rts[1].NewDataAt(3, "stage")

	first := s.rts[1].NewDistFutureAt(2)
	sawFirst := s.rts[0].WaitLCO(0, first)
	last, sawLast := s.rts[0].NewFutureAt(1)
	s.rts[0].SendFrom(0, parcel.New(obj, "surface.seven", nil,
		parcel.Continuation{Target: first, Action: ActionLCOSet},
		parcel.Continuation{Target: last, Action: ActionLCOSet}))
	for name, f := range map[string]*lco.Future{"DistLCO": sawFirst, "next continuation": sawLast} {
		if v, err := f.Get(); err != nil || v != int64(7) {
			t.Fatalf("%s saw %v, %v; want 7", name, v, err)
		}
	}

	failed := s.rts[0].NewDistFutureAt(0)
	sawFail := s.rts[0].WaitLCO(1, failed)
	s.rts[0].SendFrom(0, parcel.New(obj, "surface.fail", nil,
		parcel.Continuation{Target: failed, Action: ActionLCOSet}))
	if _, err := sawFail.Get(); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("observer of the failed action's LCO got %v, want the failure message", err)
	}
	s.rts[0].Wait()
	for i, r := range s.rts {
		if errs := r.Errors(); len(errs) != 0 {
			t.Fatalf("node %d recorded errors: %v", i, errs)
		}
	}
}
