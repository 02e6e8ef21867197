package parallex

import (
	"time"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/lco"
	"repro/internal/locality"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// Core runtime types, re-exported as the public API surface.
type (
	// Runtime is one ParalleX machine instance.
	Runtime = core.Runtime
	// Config parameterizes a runtime.
	Config = core.Config
	// Context is an executing thread's view of the runtime.
	Context = core.Context
	// ActionFunc is a parcel action body.
	ActionFunc = core.ActionFunc
	// MembershipConfig tunes the failure detector and heartbeat cadence of
	// an elastic multi-node machine (see Config.Membership).
	MembershipConfig = core.MembershipConfig
	// MemberEvent is one membership change: a node joining the machine or
	// being declared dead (with its localities re-homed onto an adopter).
	MemberEvent = agas.MemberEvent
	// MemberInfo is one row of a Runtime.Members snapshot.
	MemberInfo = core.MemberInfo

	// GID is a global identifier in the ParalleX name space.
	GID = agas.GID
	// Kind types a global name.
	Kind = agas.Kind

	// DistLCO is a globally addressable LCO: any node may trigger it by
	// GID, it migrates live, and each trigger is applied once. See
	// Runtime.NewDistFutureAt and friends.
	DistLCO = core.DistLCO
	// TrigOp identifies one distributed LCO trigger operation.
	TrigOp = core.TrigOp
	// Waiter names what a distributed LCO triggers when it resolves.
	Waiter = core.Waiter

	// Parcel is the message-driven unit of work movement.
	Parcel = parcel.Parcel
	// Continuation names what happens after a parcel's action completes.
	Continuation = parcel.Continuation
	// Args builds an encoded argument record.
	Args = parcel.Args
	// ArgsReader decodes an argument record.
	ArgsReader = parcel.Reader

	// Future is a single-assignment LCO.
	Future = lco.Future
	// Dataflow is an n-input dataflow template LCO.
	Dataflow = lco.Dataflow
	// AndGate fires after n signals.
	AndGate = lco.AndGate
	// OrGate fires on the first of several signals.
	OrGate = lco.OrGate
	// Reduce accumulates n contributions with an associative operator.
	Reduce = lco.Reduce
	// Semaphore is a counting semaphore LCO.
	Semaphore = lco.Semaphore
	// Barrier is the conventional global barrier (provided for
	// comparison; prefer dataflow LCOs).
	Barrier = lco.Barrier
	// DepletedThread stores a suspended thread's continuation.
	DepletedThread = lco.DepletedThread
	// Metathread instantiates a thread when its dependencies fire.
	Metathread = lco.Metathread

	// NetworkModel computes message latencies between localities.
	NetworkModel = network.Model
	// NetworkParams holds a network model's physical constants.
	NetworkParams = network.Params

	// SchedulingPolicy selects locality queue order.
	SchedulingPolicy = locality.Policy

	// Transport moves parcels between the nodes of a multi-process machine.
	Transport = transport.Transport
	// TCPTransport is the frame transport over real TCP streams: senders
	// enqueue, and one writer per lane batches whatever built up into
	// each write.
	TCPTransport = transport.TCP
	// TCPTransportConfig parameterizes one node's TCP transport.
	TCPTransportConfig = transport.TCPConfig
	// LocalityRange is a half-open range of locality indices hosted by one
	// node.
	LocalityRange = agas.Range
)

// Name kinds.
const (
	KindData     = agas.KindData
	KindAction   = agas.KindAction
	KindLCO      = agas.KindLCO
	KindProcess  = agas.KindProcess
	KindHardware = agas.KindHardware
)

// Scheduling policies.
const (
	FIFO = locality.FIFO
	LIFO = locality.LIFO
)

// Membership event kinds (see Runtime.SubscribeMembership).
const (
	MemberJoined = agas.MemberJoined
	MemberDied   = agas.MemberDied
)

// Built-in actions usable as continuation targets.
const (
	ActionLCOSet        = core.ActionLCOSet
	ActionLCOFail       = core.ActionLCOFail
	ActionLCOSignal     = core.ActionLCOSignal
	ActionLCOContribute = core.ActionLCOContribute
	ActionLCOTrigger    = core.ActionLCOTrigger
	ActionNop           = core.ActionNop
)

// Distributed LCO trigger operations (see Runtime.SubscribeLCO).
const (
	TrigSet        = core.TrigSet
	TrigFail       = core.TrigFail
	TrigSignal     = core.TrigSignal
	TrigContribute = core.TrigContribute
	TrigSupply     = core.TrigSupply
	TrigWait       = core.TrigWait
)

// Reducer names for distributed reductions (Runtime.NewDistReduceAt) and
// dataflow templates. The four are the whole set: each folds int64 or
// float64 values unboxed, and a migrating LCO carries its reducer's name.
const (
	ReduceSum   = core.ReduceSum
	ReduceMin   = core.ReduceMin
	ReduceMax   = core.ReduceMax
	ReduceCount = core.ReduceCount
)

// ErrOverloaded is the typed load-shed verdict: a locality at its
// admission limit (Config.AdmitLimit) rejected a sheddable parcel (see
// Runtime.MarkSheddable) instead of queueing it. It reaches the request's
// continuation like any action failure; test with IsOverloaded, which
// also recognizes the verdict's flattened wire form. An action both
// sheddable and direct (Runtime.MarkDirect) runs where its parcel lands —
// on the read goroutine that decodes it, or on the goroutine that sends it
// from the serving node — only while AdmitLimit is 0; under a limit it is
// queued and admitted, and shed, on the node that serves it.
var ErrOverloaded = core.ErrOverloaded

// ErrDirectAwait is what Context.Await returns inside a direct action
// (Runtime.MarkDirect) when the future is not yet resolved: a direct
// action runs where its parcel lands, on a transport read goroutine or on
// the goroutine that sent it, and never suspends or waits there. Send,
// Call and Spawn work and never wait; a Send or Call to a direct action
// of the same node is queued rather than run inline.
var ErrDirectAwait = core.ErrDirectAwait

// IsOverloaded reports whether err is a load-shed verdict — the typed
// ErrOverloaded from this process, or the flattened string form of one
// delivered across a node boundary through a failure continuation.
func IsOverloaded(err error) bool { return core.IsOverloaded(err) }

// ErrNodeLost is the typed node-death verdict: the node hosting a
// request's target (or a future's home) was declared dead by the failure
// detector, and the operation can never complete there. It reaches
// pending futures and failure continuations like any action failure;
// test with IsNodeLost, which also recognizes the flattened wire form.
var ErrNodeLost = agas.ErrNodeLost

// IsNodeLost reports whether err is a node-death verdict — the typed
// ErrNodeLost from this process, or the flattened string form of one
// delivered across a node boundary.
func IsNodeLost(err error) bool { return core.IsNodeLost(err) }

// WellKnownGID computes the deterministic global name for slot at
// locality loc — the same on every node, with no allocation or directory
// traffic, so services can agree on their objects' names by convention
// (see Runtime.NewObjectAtWellKnown).
func WellKnownGID(loc int, kind Kind, slot int) GID {
	return agas.WellKnownGID(loc, kind, slot)
}

// New builds and starts a runtime. Callers must Shutdown when done.
//
// The returned Runtime exposes the full execution model: registering
// actions (RegisterAction), installing named objects (NewDataAt and
// friends), split-phase calls (CallFrom), live object migration to any
// locality on any node (Migrate), affinity placement (NewDataNear,
// MigrateWith), and machine-wide quiescence (Wait).
func New(cfg Config) *Runtime { return core.New(cfg) }

// NewParcel builds a parcel with a fresh ID.
func NewParcel(dest GID, action string, args []byte, cont ...Continuation) *Parcel {
	return parcel.New(dest, action, args, cont...)
}

// NewArgs starts an argument record.
func NewArgs() *Args { return parcel.NewArgs() }

// ReadArgs decodes an argument record.
func ReadArgs(buf []byte) *ArgsReader { return parcel.NewReader(buf) }

// NewFuture creates an unresolved, process-local future LCO with no global
// name. Runtime.NewFutureAt gives a one-shot future a name a continuation
// can resolve; an LCO observed more than once or migrated is a DistLCO
// (Runtime.NewDistFutureAt and friends).
func NewFuture() *Future { return lco.NewFuture() }

// NewDataflow creates an n-input dataflow template.
func NewDataflow(n int, fn func(inputs []any) (any, error)) *Dataflow {
	return lco.NewDataflow(n, fn)
}

// NewAndGate creates a gate expecting n signals.
func NewAndGate(n int) *AndGate { return lco.NewAndGate(n) }

// NewReduce creates a reduction LCO.
func NewReduce(n int, init any, op func(acc, v any) any) *Reduce {
	return lco.NewReduce(n, init, op)
}

// WhenAll joins futures: the result resolves with all values in order.
func WhenAll(futures ...*Future) *Future { return lco.WhenAll(futures...) }

// WhenAny races futures: the result resolves with the first success.
func WhenAny(futures ...*Future) *Future { return lco.WhenAny(futures...) }

// Then chains a transformation onto a future.
func Then(f *Future, fn func(v any) (any, error)) *Future { return lco.Then(f, fn) }

// NewSemaphore creates a counting semaphore with n permits.
func NewSemaphore(n int) *Semaphore { return lco.NewSemaphore(n) }

// NewBarrier creates a conventional reusable barrier for n participants.
func NewBarrier(n int) *Barrier { return lco.NewBarrier(n) }

// DefaultNetworkParams returns the baseline interconnect constants.
func DefaultNetworkParams() NetworkParams { return network.DefaultParams() }

// IdealNetwork returns a zero-latency network over n localities.
func IdealNetwork(n int) NetworkModel { return network.NewIdeal(n) }

// CrossbarNetwork returns a uniform two-hop crossbar.
func CrossbarNetwork(n int, p NetworkParams) NetworkModel { return network.NewCrossbar(n, p) }

// TorusNetwork returns a 2-D torus.
func TorusNetwork(n int, p NetworkParams) NetworkModel { return network.NewTorus2D(n, p) }

// DataVortexNetwork returns the Gilgamesh II Data-Vortex-style network.
func DataVortexNetwork(n int, p NetworkParams, deflection float64) NetworkModel {
	return network.NewDataVortex(n, p, deflection)
}

// FatTreeNetwork returns a k-ary fat tree (folded Clos).
func FatTreeNetwork(n, arity int, p NetworkParams) NetworkModel {
	return network.NewFatTree(n, arity, p)
}

// NewTCPTransport binds a TCP transport for one node of a multi-process
// machine (see Config.Transport).
func NewTCPTransport(cfg TCPTransportConfig) (*transport.TCP, error) {
	return transport.NewTCP(cfg)
}

// NewLoopbackFabric creates an in-process n-node interconnect for
// deterministic multi-node tests; Node(i) yields node i's Transport. Fault
// injection happens on the wire, not through Config: the repo's own tests
// wrap an endpoint, fabric or TCP, in transport.Faulty to kill its node or
// cut one of its links after an exact frame count.
func NewLoopbackFabric(n int) *transport.Fabric { return transport.NewFabric(n) }

// EncodeValue encodes a dynamically-typed value for parcel transport.
func EncodeValue(v any) ([]byte, error) { return parcel.EncodeAny(v) }

// DecodeValue decodes a value encoded by EncodeValue.
func DecodeValue(buf []byte) (any, error) { return parcel.DecodeAny(buf) }

// Latency is a convenience alias for durations in configs.
type Latency = time.Duration
