// Package echo implements the ParalleX "echo" copy semantics: a writable
// variable shared by many execution points during the same temporal
// interval is materialized as a tree of equivalent copies, all operated on
// as if a single value, without global cache coherence. A write is a
// split-phase operation — the new value propagates down the copy tree and
// an acknowledgement wave resolves a future; the writing thread may keep
// computing speculatively but must not commit side effects until that
// future resolves (location consistency, Gao & Sarkar).
package echo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// Actions used by the echo protocol.
const (
	// ActionUpdate applies a (generation, value) pair to a copy cell and
	// cascades it to the cell's children in the copy tree.
	ActionUpdate = "px.echo.update"
	// ActionRead returns a home variable's value (baseline protocol).
	ActionRead = "px.echo.read"
	// ActionWrite replaces a home variable's value (baseline protocol).
	ActionWrite = "px.echo.write"
)

// cell is one copy of an echoed variable, resident at one locality.
type cell struct {
	v   *Var
	idx int

	mu  sync.Mutex
	val any
	gen uint64
}

// Var is an echoed variable: one copy cell per member locality, arranged
// in a fanout-ary tree rooted at index 0.
type Var struct {
	rt      *core.Runtime
	fanout  int
	members []int
	cells   []agas.GID
	loc2idx map[int]int

	writeMu sync.Mutex
	gen     atomic.Uint64
}

// RegisterActions installs the echo actions on rt; call once per runtime.
func RegisterActions(rt *core.Runtime) {
	rt.MustRegisterAction(ActionUpdate, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		c, ok := target.(*cell)
		if !ok {
			return nil, fmt.Errorf("echo: %s on %T", ActionUpdate, target)
		}
		gen := args.Uint64()
		raw := args.Bytes()
		gateGID := args.GID()
		if err := args.Err(); err != nil {
			return nil, err
		}
		val, err := parcel.DecodeAny(raw)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		if gen > c.gen {
			c.gen = gen
			c.val = val
		}
		c.mu.Unlock()
		// Cascade to children, then acknowledge this cell.
		v := c.v
		for k := 1; k <= v.fanout; k++ {
			child := c.idx*v.fanout + k
			if child >= len(v.cells) {
				break
			}
			childArgs := parcel.NewArgs().Uint64(gen).Bytes(raw).GID(gateGID).Encode()
			ctx.Send(parcel.New(v.cells[child], ActionUpdate, childArgs))
		}
		ctx.Send(parcel.New(gateGID, core.ActionLCOSignal, nil))
		return nil, nil
	})
	rt.MustRegisterAction(ActionRead, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		h, ok := target.(*homeCell)
		if !ok {
			return nil, fmt.Errorf("echo: %s on %T", ActionRead, target)
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.val, nil
	})
	rt.MustRegisterAction(ActionWrite, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		h, ok := target.(*homeCell)
		if !ok {
			return nil, fmt.Errorf("echo: %s on %T", ActionWrite, target)
		}
		raw := args.Bytes()
		if err := args.Err(); err != nil {
			return nil, err
		}
		val, err := parcel.DecodeAny(raw)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.val = val
		h.mu.Unlock()
		return nil, nil
	})
}

// NewVar creates an echoed variable with copies at the given member
// localities (tree order; members[0] is the root) and the given tree
// fanout. The initial value must be parcel-encodable.
func NewVar(rt *core.Runtime, init any, members []int, fanout int) (*Var, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("echo: variable needs at least one member")
	}
	if fanout < 1 {
		return nil, fmt.Errorf("echo: fanout %d < 1", fanout)
	}
	if _, err := parcel.EncodeAny(init); err != nil {
		return nil, fmt.Errorf("echo: initial value: %w", err)
	}
	v := &Var{rt: rt, fanout: fanout, members: append([]int(nil), members...),
		loc2idx: make(map[int]int)}
	for i, loc := range v.members {
		if _, dup := v.loc2idx[loc]; dup {
			return nil, fmt.Errorf("echo: duplicate member locality %d", loc)
		}
		v.loc2idx[loc] = i
		c := &cell{v: v, idx: i, val: init}
		v.cells = append(v.cells, rt.NewObjectAt(loc, agas.KindData, c))
	}
	return v, nil
}

// Members returns the member localities.
func (v *Var) Members() []int { return append([]int(nil), v.members...) }

// Depth reports the copy-tree depth.
func (v *Var) Depth() int {
	d, span := 0, 1
	for covered := 0; covered < len(v.cells); d++ {
		covered += span
		span *= v.fanout
	}
	return d
}

// ReadAt reads the local copy at the given member locality — a pure local
// memory access, which is the point of the echo construct. It returns the
// value and the generation it belongs to. Reading from a non-member
// locality is an error.
func (v *Var) ReadAt(loc int) (any, uint64, error) {
	idx, ok := v.loc2idx[loc]
	if !ok {
		return nil, 0, fmt.Errorf("echo: locality %d holds no copy", loc)
	}
	obj, ok := v.rt.LocalObject(loc, v.cells[idx])
	if !ok {
		return nil, 0, fmt.Errorf("echo: copy cell missing at locality %d", loc)
	}
	c := obj.(*cell)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val, c.gen, nil
}

// Write starts a split-phase write from the given locality: the new value
// propagates down the copy tree, and the returned future resolves (with
// the write's generation) once every copy has acknowledged. The caller may
// continue speculatively but must not commit side effects that depend on
// the write being visible until the future resolves.
func (v *Var) Write(from int, val any) (*lco.Future, error) {
	raw, err := parcel.EncodeAny(val)
	if err != nil {
		return nil, fmt.Errorf("echo: write value: %w", err)
	}
	v.writeMu.Lock()
	gen := v.gen.Add(1)
	v.writeMu.Unlock()
	gate := v.rt.NewDistGateAt(from, len(v.cells))
	fut := lco.NewFuture()
	v.rt.WaitLCO(from, gate).OnReady(func(_ any, err error) {
		v.rt.FreeObject(gate)
		if err != nil {
			fut.Fail(err)
			return
		}
		fut.Set(gen)
	})
	args := parcel.NewArgs().Uint64(gen).Bytes(raw).GID(gate).Encode()
	v.rt.SendFrom(from, parcel.New(v.cells[0], ActionUpdate, args))
	return fut, nil
}

// homeCell is the no-copy baseline: the value lives at one home locality
// and every read pays a round trip.
type homeCell struct {
	mu  sync.Mutex
	val any
}

// HomeVar is the comparison protocol for experiment E8: a single home copy,
// remote reads via round-trip parcels.
type HomeVar struct {
	rt  *core.Runtime
	gid agas.GID
}

// NewHomeVar creates a home-based variable at the given locality.
func NewHomeVar(rt *core.Runtime, home int, init any) (*HomeVar, error) {
	if _, err := parcel.EncodeAny(init); err != nil {
		return nil, fmt.Errorf("echo: initial value: %w", err)
	}
	h := &homeCell{val: init}
	return &HomeVar{rt: rt, gid: rt.NewObjectAt(home, agas.KindData, h)}, nil
}

// ReadFrom reads the value from the given locality, paying the round trip.
func (h *HomeVar) ReadFrom(loc int) (any, error) {
	fut := h.rt.CallFrom(loc, h.gid, ActionRead, nil)
	v, err := fut.Get()
	return v, err
}

// WriteFrom replaces the value from the given locality; the returned future
// resolves when the home copy is updated.
func (h *HomeVar) WriteFrom(loc int, val any) (*lco.Future, error) {
	raw, err := parcel.EncodeAny(val)
	if err != nil {
		return nil, err
	}
	args := parcel.NewArgs().Bytes(raw).Encode()
	return h.rt.CallFrom(loc, h.gid, ActionWrite, args), nil
}
