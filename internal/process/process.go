// Package process implements ParalleX parallel processes: a process is not
// merely one of many concurrent programs, but an entity whose parts —
// threads and child processes — run concurrently across many localities.
// Once instantiated, a process is a first-class named object; messages
// incident on it invoke methods that create new threads (single locality)
// or child processes (multiple localities).
package process

import (
	"fmt"
	"sync"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// ActionInvoke dispatches a method invocation on a process part.
const ActionInvoke = "px.process.invoke"

// Method is a process method body. It runs as a fresh thread on the
// locality hosting the invoked part.
type Method func(ctx *core.Context, p *Process, part int, args *parcel.Reader) (any, error)

// Class describes a process type: a method suite shared by its instances.
type Class struct {
	Name    string
	Methods map[string]Method
}

// NewClass builds a class from a method map.
func NewClass(name string, methods map[string]Method) *Class {
	if name == "" {
		panic("process: class needs a name")
	}
	return &Class{Name: name, Methods: methods}
}

// part is the per-locality representative of a process.
type part struct {
	p   *Process
	idx int
}

// Process is one instantiated parallel process.
type Process struct {
	rt      *core.Runtime
	class   *Class
	name    string
	members []int
	parts   []agas.GID

	mu       sync.Mutex
	children []*Process
	active   int
	quietC   *sync.Cond
	dead     bool
}

// RegisterActions installs the process dispatch action; once per runtime.
func RegisterActions(rt *core.Runtime) {
	rt.MustRegisterAction(ActionInvoke, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		pt, ok := target.(*part)
		if !ok {
			return nil, fmt.Errorf("process: %s on %T", ActionInvoke, target)
		}
		method := args.String()
		payload := args.Bytes()
		if err := args.Err(); err != nil {
			return nil, err
		}
		fn, ok := pt.p.class.Methods[method]
		if !ok {
			pt.p.endInvocation()
			return nil, fmt.Errorf("process: class %q has no method %q", pt.p.class.Name, method)
		}
		defer pt.p.endInvocation()
		return fn(ctx, pt.p, pt.idx, parcel.NewReader(payload))
	})
}

// Spawn instantiates a process of the given class across member
// localities. The process is bound in the namespace as /proc/<name>.
func Spawn(rt *core.Runtime, class *Class, name string, members []int) (*Process, error) {
	if class == nil || len(class.Methods) == 0 {
		return nil, fmt.Errorf("process: spawn of classless process")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("process: process needs at least one member locality")
	}
	p := &Process{rt: rt, class: class, name: name, members: append([]int(nil), members...)}
	p.quietC = sync.NewCond(&p.mu)
	for i, loc := range p.members {
		gid := rt.NewObjectAt(loc, agas.KindProcess, &part{p: p, idx: i})
		p.parts = append(p.parts, gid)
	}
	if name != "" {
		if err := rt.AGAS().Namespace().Bind("/proc/"+name, p.parts[0]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Name reports the process name.
func (p *Process) Name() string { return p.name }

// Class reports the process class.
func (p *Process) Class() *Class { return p.class }

// Members reports the localities the process spans.
func (p *Process) Members() []int { return append([]int(nil), p.members...) }

// GID returns the process identity (its lead part's global name).
func (p *Process) GID() agas.GID { return p.parts[0] }

// PartGID returns the global name of the i-th part.
func (p *Process) PartGID(i int) agas.GID { return p.parts[i] }

func (p *Process) beginInvocation() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return fmt.Errorf("process: %q is terminated", p.name)
	}
	p.active++
	return nil
}

func (p *Process) endInvocation() {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		p.quietC.Broadcast()
	}
	p.mu.Unlock()
}

// InvokeAt invokes a method on part idx from locality from, returning a
// future for the method's result. The method runs as a new thread on the
// part's locality.
func (p *Process) InvokeAt(from, idx int, method string, payload []byte) (*lco.Future, error) {
	if idx < 0 || idx >= len(p.parts) {
		return nil, fmt.Errorf("process: part %d out of range [0,%d)", idx, len(p.parts))
	}
	if err := p.beginInvocation(); err != nil {
		return nil, err
	}
	args := parcel.NewArgs().String(method).Bytes(payload).Encode()
	return p.rt.CallFrom(from, p.parts[idx], ActionInvoke, args), nil
}

// Invoke invokes a method on the lead part.
func (p *Process) Invoke(from int, method string, payload []byte) (*lco.Future, error) {
	return p.InvokeAt(from, 0, method, payload)
}

// InvokeAll invokes the method on every part concurrently, returning a
// future that resolves when all parts have completed, or fails with the
// first part's failure.
func (p *Process) InvokeAll(from int, method string, payload []byte) (*lco.Future, error) {
	gate := p.rt.NewDistGateAt(from, len(p.parts))
	done := p.rt.WaitLCO(from, gate)
	done.OnReady(func(any, error) { p.rt.FreeObject(gate) })
	args := parcel.NewArgs().String(method).Bytes(payload).Encode()
	for _, gid := range p.parts {
		if err := p.beginInvocation(); err != nil {
			return nil, err
		}
		pcl := parcel.New(gid, ActionInvoke, args,
			parcel.Continuation{Target: gate, Action: core.ActionLCOSignal})
		p.rt.SendFrom(from, pcl)
	}
	return done, nil
}

// SpawnChild creates a nested process of the same runtime, tracked for
// recursive termination.
func (p *Process) SpawnChild(class *Class, name string, members []int) (*Process, error) {
	child, err := Spawn(p.rt, class, name, members)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.children = append(p.children, child)
	p.mu.Unlock()
	return child, nil
}

// Children returns the live child processes.
func (p *Process) Children() []*Process {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Process(nil), p.children...)
}

// Join blocks until the process has no active method invocations.
// Invocations started while joining extend the wait.
func (p *Process) Join() {
	p.mu.Lock()
	for p.active > 0 {
		p.quietC.Wait()
	}
	p.mu.Unlock()
}

// Terminate joins the process, terminates children recursively, frees all
// part names, and unbinds the process from the namespace. Further
// invocations fail.
func (p *Process) Terminate() {
	p.Join()
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	children := p.children
	p.children = nil
	p.mu.Unlock()
	for _, c := range children {
		c.Terminate()
	}
	for _, gid := range p.parts {
		p.rt.FreeObject(gid)
	}
	if p.name != "" {
		p.rt.AGAS().Namespace().Unbind("/proc/" + p.name)
	}
}
