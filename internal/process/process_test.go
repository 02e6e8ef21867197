package process

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/parcel"
)

func newMachine(t *testing.T, n int) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{Localities: n, WorkersPerLocality: 4})
	t.Cleanup(rt.Shutdown)
	RegisterActions(rt)
	return rt
}

func counterClass(counts *[8]atomic.Int64) *Class {
	return NewClass("counter", map[string]Method{
		"bump": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			counts[ctx.Locality()].Add(1)
			return int64(part), nil
		},
		"whoami": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			return int64(ctx.Locality()), nil
		},
	})
}

func TestInvokeRunsOnLeadLocality(t *testing.T) {
	rt := newMachine(t, 4)
	var counts [8]atomic.Int64
	p, err := Spawn(rt, counterClass(&counts), "p1", []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := p.Invoke(0, "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 2 {
		t.Fatalf("lead method ran on L%v, want L2", v)
	}
}

func TestInvokeAtSpecificPart(t *testing.T) {
	rt := newMachine(t, 4)
	var counts [8]atomic.Int64
	p, _ := Spawn(rt, counterClass(&counts), "p2", []int{1, 3})
	fut, err := p.InvokeAt(0, 1, "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := fut.Get()
	if v.(int64) != 3 {
		t.Fatalf("part 1 ran on L%v, want L3", v)
	}
	if _, err := p.InvokeAt(0, 9, "whoami", nil); err == nil {
		t.Fatal("out-of-range part accepted")
	}
}

func TestInvokeAllReachesEveryPart(t *testing.T) {
	rt := newMachine(t, 4)
	var counts [8]atomic.Int64
	p, _ := Spawn(rt, counterClass(&counts), "p3", []int{0, 1, 2, 3})
	gate, err := p.InvokeAll(0, "bump", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gate.Get(); err != nil {
		t.Fatal(err)
	}
	rt.Wait()
	for loc := 0; loc < 4; loc++ {
		if counts[loc].Load() != 1 {
			t.Fatalf("L%d ran %d bumps", loc, counts[loc].Load())
		}
	}
}

func TestUnknownMethodFails(t *testing.T) {
	rt := newMachine(t, 2)
	var counts [8]atomic.Int64
	p, _ := Spawn(rt, counterClass(&counts), "p4", []int{0})
	fut, err := p.Invoke(1, "nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Get(); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Fatalf("err = %v", err)
	}
	p.Join() // failed invocations must not wedge the activity counter
}

func TestMethodArgumentsTravel(t *testing.T) {
	rt := newMachine(t, 2)
	cls := NewClass("adder", map[string]Method{
		"add": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			return args.Int64() + args.Int64(), args.Err()
		},
	})
	p, _ := Spawn(rt, cls, "p5", []int{1})
	fut, _ := p.Invoke(0, "add", parcel.NewArgs().Int64(20).Int64(22).Encode())
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 42 {
		t.Fatalf("add = %v", v)
	}
}

func TestNamespaceBinding(t *testing.T) {
	rt := newMachine(t, 2)
	var counts [8]atomic.Int64
	p, _ := Spawn(rt, counterClass(&counts), "bound", []int{0, 1})
	g, err := rt.AGAS().Namespace().Lookup("/proc/bound")
	if err != nil {
		t.Fatal(err)
	}
	if g != p.GID() {
		t.Fatal("namespace points elsewhere")
	}
	p.Terminate()
	if _, err := rt.AGAS().Namespace().Lookup("/proc/bound"); err == nil {
		t.Fatal("name survives termination")
	}
}

func TestTerminateRejectsNewInvocations(t *testing.T) {
	rt := newMachine(t, 2)
	var counts [8]atomic.Int64
	p, _ := Spawn(rt, counterClass(&counts), "dying", []int{0})
	p.Terminate()
	if _, err := p.Invoke(1, "bump", nil); err == nil {
		t.Fatal("invocation on terminated process accepted")
	}
	p.Terminate() // idempotent
}

func TestChildProcessesTerminateRecursively(t *testing.T) {
	rt := newMachine(t, 4)
	var counts [8]atomic.Int64
	cls := counterClass(&counts)
	parent, _ := Spawn(rt, cls, "parent", []int{0, 1})
	child, err := parent.SpawnChild(cls, "child", []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.Children()) != 1 {
		t.Fatal("child not tracked")
	}
	parent.Terminate()
	if _, err := child.Invoke(0, "bump", nil); err == nil {
		t.Fatal("child survived parent termination")
	}
}

func TestJoinWaitsForInvocations(t *testing.T) {
	rt := newMachine(t, 2)
	release := make(chan struct{})
	var done atomic.Bool
	cls := NewClass("slow", map[string]Method{
		"block": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			<-release
			done.Store(true)
			return nil, nil
		},
	})
	p, _ := Spawn(rt, cls, "slowp", []int{1})
	if _, err := p.Invoke(0, "block", nil); err != nil {
		t.Fatal(err)
	}
	joined := make(chan struct{})
	go func() { p.Join(); close(joined) }()
	select {
	case <-joined:
		t.Fatal("Join returned while method still running")
	default:
	}
	close(release)
	<-joined
	if !done.Load() {
		t.Fatal("method did not complete")
	}
}

func TestSpawnValidation(t *testing.T) {
	rt := newMachine(t, 2)
	if _, err := Spawn(rt, nil, "x", []int{0}); err == nil {
		t.Fatal("nil class accepted")
	}
	var counts [8]atomic.Int64
	if _, err := Spawn(rt, counterClass(&counts), "y", nil); err == nil {
		t.Fatal("no members accepted")
	}
	// Duplicate name rejected via namespace.
	if _, err := Spawn(rt, counterClass(&counts), "dup", []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Spawn(rt, counterClass(&counts), "dup", []int{1}); err == nil {
		t.Fatal("duplicate process name accepted")
	}
}

func TestMethodsCanInvokeSiblings(t *testing.T) {
	// A method on part 0 fans work out to all parts — message-driven
	// control from within the process.
	rt := newMachine(t, 4)
	var hits atomic.Int64
	var cls *Class
	cls = NewClass("fan", map[string]Method{
		"leaf": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			hits.Add(1)
			return nil, nil
		},
		"root": func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error) {
			gate, err := p.InvokeAll(ctx.Locality(), "leaf", nil)
			if err != nil {
				return nil, err
			}
			ctx.Runtime() // document ctx availability
			if _, err := gate.Get(); err != nil {
				return nil, err
			}
			return int64(len(p.Members())), nil
		},
	})
	p, _ := Spawn(rt, cls, "fanp", []int{0, 1, 2, 3})
	fut, _ := p.Invoke(0, "root", nil)
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 4 || hits.Load() != 4 {
		t.Fatalf("fan-out: result %v hits %d", v, hits.Load())
	}
}
