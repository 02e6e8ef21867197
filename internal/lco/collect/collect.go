// Package collect builds cross-node collectives — Reduce, Broadcast, and
// Barrier — out of distributed LCO gate trees. Each collective is a
// two-level tree of AGAS-homed LCOs: one leaf per node aggregates that
// node's local arrivals, and the leaves feed a root on the initiating
// node through subscribed waiters. Local arrivals therefore cost one
// same-node trigger, and each node contributes exactly one cross-node
// frame per collective — the fan-in the ParalleX model expresses with
// LCOs instead of rank-synchronous barriers.
//
// Because every tree node is an ordinary AGAS object, a collective
// survives live migration of its gates: pending triggers chase the
// forwarding pointer.
//
// Collectives are identified by a caller-chosen string. The initiating
// node builds the tree with NewReduce/NewBroadcast/NewBarrier — which
// installs a leaf on every participating node and binds it in that node's
// local AGAS namespace under /collect/<id> — and any node attaches to an
// installed collective with AttachReduce/AttachBroadcast/AttachBarrier.
// A consumed collective is torn down machine-wide with its Free method;
// phased computation therefore cycles fresh IDs without accreting AGAS
// state. RegisterActions must run on every node (Config.Register on a
// multi-node machine) before collectives are built.
package collect

import (
	"fmt"
	"sync"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// ActionInstall is the action that installs a collective's per-node leaf.
// It executes on each participating node's hardware object and is
// idempotent per collective ID: installing an ID this node already holds
// answers the existing leaf instead of building a second one.
const ActionInstall = "px.collect.install"

// ActionUninstall is ActionInstall's inverse: it frees this node's leaf
// (and release) objects and unbinds the collective's namespace entries.
// Idempotent — a second uninstall finds nothing and succeeds.
const ActionUninstall = "px.collect.uninstall"

// installMu serializes leaf installation and teardown within one process,
// making the lookup-then-create sequence atomic against a concurrent
// install or uninstall of the same ID.
var installMu sync.Mutex

// RegisterActions installs collect's actions on rt. On a multi-node
// machine call it in Config.Register, before the transport starts.
func RegisterActions(rt *core.Runtime) {
	rt.MustRegisterAction(ActionInstall, installLeaf)
	rt.MustRegisterAction(ActionUninstall, uninstallLeaf)
}

// leafPath and friends name a collective's per-node objects in the local
// AGAS namespace.
func leafPath(id string) string    { return "/collect/" + id + "/leaf" }
func rootPath(id string) string    { return "/collect/" + id + "/root" }
func releasePath(id string) string { return "/collect/" + id + "/release" }

// installLeaf builds this node's leaf for one collective:
// args = id | kind | root GID | local count | reducer op | init record.
func installLeaf(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
	id := args.String()
	kind := args.String()
	root := args.GID()
	n := int(args.Int64())
	op := args.String()
	initRaw := args.Bytes()
	if err := args.Err(); err != nil {
		return nil, err
	}
	rt := ctx.Runtime()
	loc := ctx.Locality()
	ns := rt.AGAS().Namespace()
	installMu.Lock()
	defer installMu.Unlock()
	if g, err := ns.Lookup(leafPath(id)); err == nil {
		return g, nil // already installed here
	}
	var leaf agas.GID
	switch kind {
	case "reduce":
		init, err := parcel.DecodeAny(initRaw)
		if err != nil {
			return nil, fmt.Errorf("collect: reduce init: %w", err)
		}
		if init == false {
			init = nil // nil travels as false, which no reduction starts from
		}
		// The op and init come off the wire: a bad one fails this install,
		// where NewDistReduceAt would panic the node.
		if err := core.CheckReduce(op, init); err != nil {
			return nil, fmt.Errorf("collect: reduce %q: %w", id, err)
		}
		leaf = rt.NewDistReduceAt(loc, n, op, init,
			core.Waiter{Target: root, Op: core.TrigContribute})
	case "barrier":
		// The leaf gate signals the root when every local participant has
		// arrived; the root, once all leaves signal, sets each node's
		// release future, which local waiters observe.
		release := rt.NewDistFutureAt(loc)
		rt.SubscribeLCO(loc, root, core.Waiter{Target: release, Op: core.TrigSet})
		leaf = rt.NewDistGateAt(loc, n,
			core.Waiter{Target: root, Op: core.TrigSignal})
		if err := ns.Bind(releasePath(id), release); err != nil {
			return nil, err
		}
	case "broadcast":
		// The leaf is a local future the root sets on resolution.
		leaf = rt.NewDistFutureAt(loc)
		rt.SubscribeLCO(loc, root, core.Waiter{Target: leaf, Op: core.TrigSet})
	default:
		return nil, fmt.Errorf("collect: unknown collective kind %q", kind)
	}
	if err := ns.Bind(leafPath(id), leaf); err != nil {
		return nil, err
	}
	if err := ns.Bind(rootPath(id), root); err != nil {
		return nil, err
	}
	return leaf, nil
}

// uninstallLeaf tears this node's share of a collective down:
// args = id. Leaf and release objects are freed (they are owned here
// unless deliberately migrated away, in which case freeing is a safe
// no-op left to the hosting node) and the namespace entries unbound.
func uninstallLeaf(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
	id := args.String()
	if err := args.Err(); err != nil {
		return nil, err
	}
	rt := ctx.Runtime()
	ns := rt.AGAS().Namespace()
	installMu.Lock()
	defer installMu.Unlock()
	for _, path := range []string{leafPath(id), releasePath(id)} {
		if g, err := ns.Lookup(path); err == nil {
			rt.FreeObject(g)
			_ = ns.Unbind(path)
		}
	}
	_ = ns.Unbind(rootPath(id))
	return nil, nil
}

// free fans the uninstall out to every node and then releases the root,
// shared by the collectives' Free methods. Free a collective only after
// it has resolved and its consumers are done: a straggling trigger to a
// freed LCO is dropped benignly, but a *live* collective
// loses arrivals.
func free(r *core.Runtime, src int, id string, root agas.GID) error {
	args := parcel.NewArgs().String(id).Encode()
	futs := make([]*lco.Future, 0, r.Nodes())
	for node := 0; node < r.Nodes(); node++ {
		futs = append(futs,
			r.CallFrom(src, r.LocalityGID(r.NodeRange(node).Lo), ActionUninstall, args))
	}
	var firstErr error
	for _, fut := range futs {
		if _, err := fut.Get(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("collect: uninstall %q: %w", id, err)
		}
	}
	r.FreeObject(root)
	return firstErr
}

// install fans the leaf-construction action out to every participating
// node and waits for all leaves to exist, so a collective returned by a
// New* constructor is ready for arrivals machine-wide.
func install(rt *core.Runtime, home int, id, kind string, root agas.GID, counts []int, op string, init any) error {
	if len(counts) != rt.Nodes() {
		return fmt.Errorf("collect: %d per-node counts for a %d-node machine", len(counts), rt.Nodes())
	}
	initRaw, err := parcel.EncodeAny(init)
	if err != nil {
		return fmt.Errorf("collect: init value: %w", err)
	}
	futs := make([]*lco.Future, 0, len(counts))
	for node, c := range counts {
		if c <= 0 {
			continue
		}
		args := parcel.NewArgs().String(id).String(kind).GID(root).
			Int64(int64(c)).String(op).Bytes(initRaw).Encode()
		futs = append(futs,
			rt.CallFrom(home, rt.LocalityGID(rt.NodeRange(node).Lo), ActionInstall, args))
	}
	for _, fut := range futs {
		if _, err := fut.Get(); err != nil {
			return fmt.Errorf("collect: install %q: %w", id, err)
		}
	}
	return nil
}

// activeNodes counts the tree's leaves: nodes expecting at least one
// arrival.
func activeNodes(counts []int) int {
	n := 0
	for _, c := range counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// attach resolves this node's leaf and root for an installed collective.
func attach(rt *core.Runtime, id string) (leaf, root agas.GID, err error) {
	ns := rt.AGAS().Namespace()
	if leaf, err = ns.Lookup(leafPath(id)); err != nil {
		return agas.Nil, agas.Nil, fmt.Errorf("collect: %q not installed on this node: %w", id, err)
	}
	if root, err = ns.Lookup(rootPath(id)); err != nil {
		return agas.Nil, agas.Nil, err
	}
	return leaf, root, nil
}

// Reduce is a machine-wide reduction tree: per-node leaf reductions fold
// local contributions, and each resolved leaf contributes its partial
// accumulation to the root.
type Reduce struct {
	rt *core.Runtime
	// ID identifies the collective machine-wide.
	ID string
	// Root is the root reduction's global name.
	Root agas.GID
	leaf agas.GID
}

// NewReduce builds a reduction identified by id, rooted at resident
// locality home. counts[node] is the number of contributions expected
// from each node (0 excludes the node); op is one of the built-in
// reducers (core.ReduceSum, ReduceMin, ReduceMax or ReduceCount) and init
// the per-leaf starting accumulator: an int, int64 or float64, or nil for
// one that takes its first contribution as it is. It is folded once per
// leaf and once at the root, so a number must be the operator's identity
// (0 for sum, +inf for min) for the result to be exact. Any other op or
// init is an error.
func NewReduce(rt *core.Runtime, home int, id string, counts []int, op string, init any) (*Reduce, error) {
	leaves := activeNodes(counts)
	if leaves == 0 {
		return nil, fmt.Errorf("collect: reduce %q with no contributions", id)
	}
	if err := core.CheckReduce(op, init); err != nil {
		return nil, fmt.Errorf("collect: reduce %q: %w", id, err)
	}
	root := rt.NewDistReduceAt(home, leaves, op, init)
	if err := install(rt, home, id, "reduce", root, counts, op, init); err != nil {
		return nil, err
	}
	return AttachReduce(rt, id)
}

// AttachReduce joins an installed reduction from this node.
func AttachReduce(rt *core.Runtime, id string) (*Reduce, error) {
	leaf, root, err := attach(rt, id)
	if err != nil {
		return nil, err
	}
	return &Reduce{rt: rt, ID: id, Root: root, leaf: leaf}, nil
}

// Contribute folds v into this node's leaf from resident locality src.
// The leaf's final local accumulation flows to the root automatically.
func (r *Reduce) Contribute(src int, v any) error {
	return r.rt.ContributeLCO(src, r.leaf, v)
}

// Result returns a local future resolving with the machine-wide
// accumulation once every contribution has arrived.
func (r *Reduce) Result(src int) *lco.Future {
	return r.rt.WaitLCO(src, r.Root)
}

// Free tears the reduction down machine-wide — leaf objects, namespace
// bindings, and the root — from resident locality src. Call it on the
// constructing node after the result has been consumed.
func (r *Reduce) Free(src int) error {
	return free(r.rt, src, r.ID, r.Root)
}

// Broadcast delivers one value from the root to a leaf future on every
// node.
type Broadcast struct {
	rt *core.Runtime
	// ID identifies the collective machine-wide.
	ID string
	// Root is the root future's global name.
	Root agas.GID
	leaf agas.GID
}

// NewBroadcast builds a broadcast identified by id, rooted at resident
// locality home, with a leaf on every node of the machine.
func NewBroadcast(rt *core.Runtime, home int, id string) (*Broadcast, error) {
	root := rt.NewDistFutureAt(home)
	counts := make([]int, rt.Nodes())
	for i := range counts {
		counts[i] = 1
	}
	if err := install(rt, home, id, "broadcast", root, counts, "", nil); err != nil {
		return nil, err
	}
	return AttachBroadcast(rt, id)
}

// AttachBroadcast joins an installed broadcast from this node.
func AttachBroadcast(rt *core.Runtime, id string) (*Broadcast, error) {
	leaf, root, err := attach(rt, id)
	if err != nil {
		return nil, err
	}
	return &Broadcast{rt: rt, ID: id, Root: root, leaf: leaf}, nil
}

// Send resolves the broadcast with v, fanning it out to every leaf.
func (b *Broadcast) Send(src int, v any) error {
	return b.rt.SetLCO(src, b.Root, v)
}

// Recv returns a local future resolving with the broadcast value.
func (b *Broadcast) Recv(src int) *lco.Future {
	return b.rt.WaitLCO(src, b.leaf)
}

// Free tears the broadcast down machine-wide once every consumer has
// received the value.
func (b *Broadcast) Free(src int) error {
	return free(b.rt, src, b.ID, b.Root)
}

// Barrier is a one-shot machine-wide barrier: arrivals signal per-node
// leaf gates, the leaves signal the root, and the root's resolution sets
// a release future on every node. Reuse across phases is by constructing
// one barrier per phase (fresh IDs), the LCO idiom for phased
// computation.
type Barrier struct {
	rt *core.Runtime
	// ID identifies the collective machine-wide.
	ID string
	// Root is the root gate's global name.
	Root          agas.GID
	leaf, release agas.GID
}

// NewBarrier builds a barrier identified by id, rooted at resident
// locality home, with counts[node] participants arriving on each node.
func NewBarrier(rt *core.Runtime, home int, id string, counts []int) (*Barrier, error) {
	leaves := activeNodes(counts)
	if leaves == 0 {
		return nil, fmt.Errorf("collect: barrier %q with no participants", id)
	}
	root := rt.NewDistGateAt(home, leaves)
	if err := install(rt, home, id, "barrier", root, counts, "", nil); err != nil {
		return nil, err
	}
	return AttachBarrier(rt, id)
}

// AttachBarrier joins an installed barrier from this node.
func AttachBarrier(rt *core.Runtime, id string) (*Barrier, error) {
	leaf, root, err := attach(rt, id)
	if err != nil {
		return nil, err
	}
	release, err := rt.AGAS().Namespace().Lookup(releasePath(id))
	if err != nil {
		return nil, err
	}
	return &Barrier{rt: rt, ID: id, Root: root, leaf: leaf, release: release}, nil
}

// Arrive delivers one participant arrival from resident locality src.
func (b *Barrier) Arrive(src int) {
	b.rt.SignalLCO(src, b.leaf)
}

// Released returns a local future resolving once every participant
// machine-wide has arrived.
func (b *Barrier) Released(src int) *lco.Future {
	return b.rt.WaitLCO(src, b.release)
}

// Free tears the barrier down machine-wide once the release has fanned
// out — the idiom for phased computation is one barrier per phase, freed
// as the next phase's barrier is built.
func (b *Barrier) Free(src int) error {
	return free(b.rt, src, b.ID, b.Root)
}
