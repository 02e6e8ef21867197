// Package parcel implements the ParalleX parcel: the message-driven unit of
// work movement. A parcel names a destination object (by GID), an action to
// apply to it, argument values, and — the feature distinguishing parcels
// from plain active messages — a continuation specifier describing what
// happens after the action completes. Continuations let the locus of
// control migrate across the machine instead of returning to the sender.
package parcel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/agas"
)

// Continuation names an LCO (or other object) to be triggered with the
// action's result, and the action to apply there. A chain of continuations
// forms a migrating locus of control.
type Continuation struct {
	Target agas.GID
	Action string
}

// NoAID marks a parcel whose action has not been resolved to a dense
// registered ID; dispatch then falls back to the name lookup. Action IDs
// are 1-based so the zero value of Parcel (and of AID after a wire decode
// with no table) is safely unresolved.
const NoAID = uint32(0)

// Parcel is one message-driven task descriptor.
type Parcel struct {
	// ID is unique among the parcels one process mints. It keys SLOW's
	// 1-in-64 clock sampling, and a continuation inherits it from the
	// parcel whose action produced its value, so a whole chain is sampled
	// or not.
	ID uint64
	// Shard is the call's shard (0 to Shards-1): the one index, picked
	// once per call, by which everything the call writes node-wide — its
	// ID, its pool accounting, the runtime's counters and reply stripe —
	// picks a cell of its own. A continuation inherits it with ID. It is
	// never encoded: a decoded parcel takes its receiver's shard.
	Shard uint8
	// Dest is the global name of the target object. The runtime routes the
	// parcel to the locality currently owning Dest.
	Dest agas.GID
	// Action is the registered action name to invoke on the target.
	Action string
	// AID caches the executing runtime's dense ID for Action (see the core
	// action registry), letting dispatch index a slice instead of hashing
	// the name. NoAID means unresolved. It is runtime-local: the wire
	// carries positions in the sender's announced table, never AID.
	AID uint32
	// Args is the encoded argument record (see Args/Reader).
	Args []byte
	// Cont is the continuation stack; element 0 is applied first.
	Cont []Continuation
	// Src is the sending locality, for accounting.
	Src int
	// Hops counts owner-forwarding retries (stale AGAS caches).
	Hops int
	// Trace is the distributed trace context (zero when untraced). It is
	// NOT written by Encode: the trailer is appended by TraceCtx.Append
	// and parsed by DecodeTrace (see trace.go).
	Trace TraceCtx

	// own is the parcel-owned argument store: a decode copies argument
	// bytes into it and OwnArgs builds records in it. It survives pool
	// recycles, so steady-state decodes and runtime-built records do not
	// allocate.
	own Args
	// pooled marks parcels from the pool (Acquire, DecodePooled); Release
	// ignores the rest.
	pooled bool
	// released guards double-release when pool debugging is on.
	released bool
	// ownsCont marks a continuation stack backed by parcel-owned storage:
	// pooled parcels copy theirs in, but New aliases the caller's variadic
	// slice, which in-place mutation must not scribble on.
	ownsCont bool
}

// NextID mints a parcel ID on shard 0 (see mint).
func NextID() uint64 { return shards[0].mint(0) }

// New builds a parcel with a fresh ID.
func New(dest agas.GID, action string, args []byte, cont ...Continuation) *Parcel {
	return &Parcel{ID: NextID(), Dest: dest, Action: action, Args: args, Cont: cont}
}

// PushContinuation prepends c so it runs before existing continuations.
// The stack is shifted in place, reusing spare capacity: pushing is
// amortized O(1) allocations (a push allocates only when the stack grows
// past its high-water capacity), not one fresh slice per push. A stack
// still aliasing the caller's slice (New stores the variadic argument
// as-is) is copied once before the first in-place shift, so the caller's
// backing array is never mutated.
func (p *Parcel) PushContinuation(c Continuation) {
	if !p.ownsCont {
		cont := make([]Continuation, len(p.Cont)+1)
		copy(cont[1:], p.Cont)
		cont[0] = c
		p.Cont = cont
		p.ownsCont = true
		return
	}
	p.Cont = append(p.Cont, Continuation{})
	copy(p.Cont[1:], p.Cont)
	p.Cont[0] = c
}

// PopContinuation removes and returns the first continuation; ok is false
// when none remain. A parcel-owned stack shifts down in place: reslicing
// from the front would give up one element of capacity per pop, and a
// pooled parcel would then regrow its stack on every recycle. A stack still
// aliasing the caller's slice (see PushContinuation) is resliced instead.
func (p *Parcel) PopContinuation() (Continuation, bool) {
	if len(p.Cont) == 0 {
		return Continuation{}, false
	}
	c := p.Cont[0]
	if !p.ownsCont {
		p.Cont = p.Cont[1:]
		return c, true
	}
	n := copy(p.Cont, p.Cont[1:])
	p.Cont[n] = Continuation{}
	p.Cont = p.Cont[:n]
	return c, true
}

// String renders the parcel for logs, with at most 64 characters of its
// action name.
func (p *Parcel) String() string {
	return fmt.Sprintf("parcel#%d %.64s->%v args=%dB cont=%d", p.ID, p.Action, p.Dest, len(p.Args), len(p.Cont))
}

// Wire format:
//
//	u64 id | gid dest | ref action | u32 nargs bytes | args |
//	u16 ncont | ncont × (gid target, ref action) | u32 src | u32 hops
//
// All integers are little-endian. An action reference is written against
// an EncodeTable (see intern.go): a position in the sender's announced
// action table where the table knows the name, the name spelled out
// otherwise. With no table every name is spelled out, which is the form
// Encode writes.
//
// The format imposes hard limits: action names (and continuation action
// names) are at most MaxInternString bytes, the continuation stack holds at
// most MaxContinuations entries, and the argument record at most MaxArgs
// bytes. Encode panics when a parcel exceeds them — the limits are generous
// and a violation is a program bug, not a runtime condition; truncating
// silently on a network-facing wire would be far worse.

// Wire format limits enforced by Encode, beside MaxInternString.
const (
	// MaxContinuations bounds the continuation stack (u16 count).
	MaxContinuations = 1<<16 - 1
	// MaxArgs bounds the encoded argument record (u32 length prefix).
	MaxArgs = 1<<32 - 1
)

// Encode appends the wire form of p to dst with every action name spelled
// out: EncodeInterned with no table. It panics if p exceeds the wire
// format limits (see MaxInternString, MaxContinuations, MaxArgs).
func (p *Parcel) Encode(dst []byte) []byte {
	return p.EncodeInterned(dst, nil)
}

// EncodeInterned appends the wire form of p to dst, referring to actions
// by position where t knows them and spelling them out otherwise. It
// panics on the same wire-limit violations as Encode.
func (p *Parcel) EncodeInterned(dst []byte, t EncodeTable) []byte {
	if len(p.Cont) > MaxContinuations {
		panic(fmt.Sprintf("parcel: %d continuations exceed wire limit %d", len(p.Cont), MaxContinuations))
	}
	if uint64(len(p.Args)) > MaxArgs {
		panic(fmt.Sprintf("parcel: %d argument bytes exceed wire limit %d", len(p.Args), uint64(MaxArgs)))
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.ID)
	dst = p.Dest.Encode(dst)
	dst = appendActionRef(dst, p.Action, t)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Args)))
	dst = append(dst, p.Args...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.Cont)))
	for _, c := range p.Cont {
		dst = c.Target.Encode(dst)
		dst = appendActionRef(dst, c.Action, t)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Hops))
	return dst
}

// Decode parses a parcel from the front of src, returning the remainder.
// It resolves no table positions. The parcel is freshly allocated and
// never recycled; the runtime's hot path uses DecodePooledInterned instead.
func Decode(src []byte) (*Parcel, []byte, error) {
	p := &Parcel{}
	rest, err := decodeInto(p, src, nil)
	if err != nil {
		return nil, rest, err
	}
	return p, rest, nil
}

// DecodePooled is DecodePooledInterned with no table, on shard 0: a
// parcel naming an action by table position is rejected.
func DecodePooled(src []byte) (*Parcel, []byte, error) {
	return DecodePooledInterned(src, nil, 0)
}

// DecodePooledInterned parses a parcel from the front of src into a pooled
// parcel, resolving table positions through t. The parcel owns its
// argument bytes (src may be a transport read buffer that is reused the
// moment the caller returns) and must be handed to Release exactly once
// when dispatch completes. Its AID is set for positions t resolves, so
// dispatch can index the action table directly. The parcel is taken on
// shard (modulo Shards), the receiver's: the shard is never encoded.
func DecodePooledInterned(src []byte, t DecodeTable, shard int) (*Parcel, []byte, error) {
	p := blank(uint8(shard))
	rest, err := decodeInto(p, src, t)
	if err != nil {
		Release(p)
		return nil, rest, err
	}
	return p, rest, nil
}

// decodeInto parses a parcel from the front of src into p, overwriting
// every field and returning the remainder. Argument bytes are copied into
// p's own backing store (reused across pool recycles), so src may be
// recycled by the caller immediately; the continuation stack likewise
// reuses p's capacity. On error p is partially filled and must be
// discarded or released, not dispatched.
func decodeInto(p *Parcel, src []byte, t DecodeTable) ([]byte, error) {
	p.Trace = TraceCtx{} // the trailer, if any, is parsed by the caller
	if len(src) < 8 {
		return src, fmt.Errorf("parcel: short ID")
	}
	p.ID = binary.LittleEndian.Uint64(src)
	src = src[8:]
	var err error
	p.Dest, src, err = agas.DecodeGID(src)
	if err != nil {
		return src, fmt.Errorf("parcel: dest: %w", err)
	}
	p.Action, p.AID, src, err = readActionRef(src, t)
	if err != nil {
		return src, fmt.Errorf("parcel: action: %w", err)
	}
	if len(src) < 4 {
		return src, fmt.Errorf("parcel: short args length")
	}
	argLen := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if len(src) < argLen {
		return src, fmt.Errorf("parcel: args truncated: want %d have %d", argLen, len(src))
	}
	if argLen == 0 {
		p.Args = nil
	} else {
		p.own.buf = append(p.own.buf[:0], src[:argLen]...)
		p.Args = p.own.buf
	}
	src = src[argLen:]
	if len(src) < 2 {
		return src, fmt.Errorf("parcel: short continuation count")
	}
	ncont := int(binary.LittleEndian.Uint16(src))
	src = src[2:]
	p.Cont = p.Cont[:0]
	p.ownsCont = true // decoded stacks live in parcel-owned (or fresh) backing
	for i := 0; i < ncont; i++ {
		var c Continuation
		c.Target, src, err = agas.DecodeGID(src)
		if err != nil {
			return src, fmt.Errorf("parcel: cont %d target: %w", i, err)
		}
		c.Action, _, src, err = readActionRef(src, t)
		if err != nil {
			return src, fmt.Errorf("parcel: cont %d action: %w", i, err)
		}
		p.Cont = append(p.Cont, c)
	}
	if len(src) < 8 {
		return src, fmt.Errorf("parcel: short trailer")
	}
	p.Src = int(binary.LittleEndian.Uint32(src))
	p.Hops = int(binary.LittleEndian.Uint32(src[4:]))
	return src[8:], nil
}
