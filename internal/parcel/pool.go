package parcel

import (
	"sync"
	"sync/atomic"

	"repro/internal/agas"
)

// Pooling. The steady-state parcel path recycles Parcel values and encode
// buffers instead of allocating per message. Ownership is explicit and
// linear: a pooled parcel has exactly one holder at a time — the holder
// either passes it on (enqueue, park, re-route) or calls Release exactly
// once when dispatch completes. Encode buffers follow the same rule: the
// encoder releases after the frame has been flushed to the transport.
//
// A parcel between localities of one node is handed over by pointer and is
// never encoded, so its Args are referenced, not copied, until dispatch:
// whoever built them must leave them untouched until then.
//
// Parcels built by New (the public constructor) are not pooled: Release
// ignores them, so application code that retains a parcel after sending
// it — tests, traces — keeps today's safe semantics. Only the runtime's
// internal parcels (decoded arrivals, continuations, split-phase calls)
// opt into recycling via the Acquire family and DecodePooledInterned.

var parcelPool = sync.Pool{New: func() any {
	parcelPoolMisses.Add(1)
	return &Parcel{}
}}

// Pool hit/miss accounting. A miss is a pool Get that had to allocate (the
// sync.Pool New func ran); everything else is a hit — the zero-allocation
// steady state. The counters are process-global, like the pools they
// observe, and are exported to the runtime's metric registry. Parcel gets
// are counted per shard (shardCell), the rest on one word each: a miss
// is rare, and a WireBuf crosses the wire, which costs far more.
var (
	parcelPoolMisses atomic.Uint64
	wirePoolGets     atomic.Uint64
	wirePoolMisses   atomic.Uint64
)

// Shards is the number of shards a call can pick (Parcel.Shard).
const (
	shardBits = 4
	Shards    = 1 << shardBits
)

// shardCell is one shard's parcel ID sequence and parcel pool gets. Each
// sits on a 128-byte block of its own, so calls on different shards write
// no common cache line (nor an adjacent-line prefetch pair).
type shardCell struct {
	ids  atomic.Uint64
	gets atomic.Uint64
	_    [128 - 16]byte
}

var shards [Shards]shardCell

// mint returns the next parcel ID of shard s: the cell's own sequence
// number above the shard in the low shardBits bits, so IDs minted on
// different shards never collide, and none is zero.
func (c *shardCell) mint(s uint8) uint64 { return c.ids.Add(1)<<shardBits | uint64(s) }

// PoolStats reports the parcel and WireBuf pools' hit/miss counters since
// process start. Misses never exceed gets: the get is counted before the
// pool can run its allocating New func.
func PoolStats() (parcelHits, parcelMisses, wireHits, wireMisses uint64) {
	parcelMisses = parcelPoolMisses.Load()
	var gets uint64
	for i := range shards {
		gets += shards[i].gets.Load()
	}
	parcelHits = gets - parcelMisses
	wireMisses = wirePoolMisses.Load()
	wireHits = wirePoolGets.Load() - wireMisses
	return
}

// get takes a parcel from the pool for shard s, counting the get there.
// Every other field is the caller's to set.
func get(s uint8) *Parcel {
	s &= Shards - 1
	shards[s].gets.Add(1)
	p := parcelPool.Get().(*Parcel)
	p.pooled = true
	p.released = false
	p.Shard = s
	return p
}

// reset sets the fields Acquire takes as arguments, and clears the
// routing state a recycled parcel may still hold. The continuation stack
// is copied into the parcel's own storage (reused across recycles), so the
// caller's slice is not retained.
func (p *Parcel) reset(dest agas.GID, action string, args []byte, cont []Continuation) {
	p.Dest = dest
	p.Action = action
	p.AID = NoAID
	p.Args = args
	p.Cont = append(p.Cont[:0], cont...)
	p.ownsCont = true
	p.Src = 0
	p.Hops = 0
}

// Acquire is AcquireOn shard 0.
func Acquire(dest agas.GID, action string, args []byte, cont ...Continuation) *Parcel {
	return AcquireOn(0, dest, action, args, cont...)
}

// AcquireOn returns a pooled parcel initialized like New, on shard (taken
// modulo Shards): its ID is minted there, and it carries the shard as
// Shard. The continuation stack is copied, so the caller's slice is not
// retained. args is referenced, not copied: the caller must not mutate it
// until the parcel is released. Pass the parcel to Release when dispatch
// completes.
func AcquireOn(shard int, dest agas.GID, action string, args []byte, cont ...Continuation) *Parcel {
	p := get(uint8(shard))
	p.ID = shards[p.Shard].mint(p.Shard)
	p.Trace = TraceCtx{}
	p.reset(dest, action, args, cont)
	return p
}

// AcquireNext is Acquire for a parcel that carries on parent's chain — a
// continuation, or the failure delivered in its place. It takes parent's
// ID, which keys SLOW's clock sampling, its shard and its trace context,
// so a sampled chain is clocked and traced on every step, and mints
// nothing.
func AcquireNext(parent *Parcel, dest agas.GID, action string, args []byte, cont ...Continuation) *Parcel {
	p := get(parent.Shard)
	p.ID = parent.ID
	p.Trace = parent.Trace
	p.reset(dest, action, args, cont)
	return p
}

// OwnArgs starts a fresh argument record in p's own store, which recycles
// with p, and returns its builder: once the pool is warm a record written
// here costs no allocation. Set p.Args to the builder's Encode when done.
// The store belongs to p, so Release needs no further care.
func (p *Parcel) OwnArgs() *Args {
	p.own.buf = p.own.buf[:0]
	return &p.own
}

// AcquireValue is AcquireNext for the parcel a continuation receives: its
// argument record is the single value v (Args.Value, what core's px.lco.*
// actions read), encoded once, in place, in the parcel's own store.
func AcquireValue(parent *Parcel, dest agas.GID, action string, v any, cont ...Continuation) (*Parcel, error) {
	p := AcquireNext(parent, dest, action, nil, cont...)
	a := p.OwnArgs()
	if err := a.Value(v); err != nil {
		Release(p)
		return nil, err
	}
	p.Args = a.Encode()
	return p, nil
}

// blank returns a pooled zero parcel on shard s for decodeInto to fill.
func blank(s uint8) *Parcel {
	p := get(s)
	p.ID = 0
	p.Trace = TraceCtx{}
	p.reset(agas.Nil, "", nil, nil)
	return p
}

// Release returns a pooled parcel for reuse. It is a no-op for parcels
// built with New, so callers may release unconditionally at the end of a
// dispatch. The parcel (and any Args slice it decoded) must not be touched
// afterwards. With pool debugging enabled (SetPoolDebug, or the debugpool
// build tag) a double release panics and released parcels are poisoned so
// use-after-release fails loudly instead of corrupting a later parcel.
func Release(p *Parcel) {
	if p == nil || !p.pooled {
		return
	}
	if cap(p.own.buf) > maxPooledCapacity {
		// A jumbo payload must not pin megabytes of backing array on a
		// pool entry serving ~100-byte steady-state parcels (the same
		// guard the TCP read buffer applies).
		p.own.buf = nil
	}
	if poolDebug.Load() {
		if p.released {
			panic("parcel: double release of " + p.String())
		}
		p.released = true
		poison(p)
		parcelPool.Put(p)
		return
	}
	p.Args = nil // never retain a caller's args slice across recycles
	parcelPool.Put(p)
}

// maxPooledCapacity bounds the backing arrays recycled through the
// parcel and wire-buffer pools: anything grown past it by a jumbo
// payload is dropped to the garbage collector on release instead of
// being pinned at high-water size forever.
const maxPooledCapacity = 64 << 10

// poolDebug enables poison-on-put and double-release checks; the race
// stress tests and the debugpool build tag turn it on.
var poolDebug atomic.Bool

// SetPoolDebug toggles pool poisoning. Intended for tests; flipping it
// while parcels are in flight only affects parcels released afterwards.
func SetPoolDebug(on bool) { poolDebug.Store(on) }

// poison overwrites a released parcel so any later observation misfires
// deterministically: the nil Dest makes a reused send panic, the action
// name shows up in any error, and args bytes are shredded.
func poison(p *Parcel) {
	p.ID = 0xdddddddddddddddd
	p.Dest = agas.Nil
	p.Action = "px.poisoned.use-after-release"
	p.AID = NoAID
	p.Args = nil
	p.Trace = TraceCtx{}
	// Shred only the parcel-owned backing store: an Acquire'd parcel merely
	// references its caller's args slice, which is not ours to scribble on.
	buf := p.own.buf[:cap(p.own.buf)]
	for i := range buf {
		buf[i] = 0xdd
	}
	p.own.buf = p.own.buf[:0]
	for i := range p.Cont {
		p.Cont[i] = Continuation{Action: "px.poisoned.use-after-release"}
	}
	p.Cont = p.Cont[:0]
}

// WireBuf is a pooled encode buffer. B is the live byte slice; callers
// append to B (reassigning it, since appends may grow it) and hand the
// whole WireBuf back to PutWire when the frame has been flushed or
// decoded.
type WireBuf struct{ B []byte }

var wirePool = sync.Pool{New: func() any {
	wirePoolMisses.Add(1)
	return &WireBuf{B: make([]byte, 0, 512)}
}}

// GetWire returns a pooled encode buffer with length 0 and retained
// capacity.
func GetWire() *WireBuf {
	wirePoolGets.Add(1)
	w := wirePool.Get().(*WireBuf)
	w.B = w.B[:0]
	return w
}

// PutWire recycles an encode buffer. The slice must not be referenced
// afterwards; with pool debugging enabled its contents are shredded first.
func PutWire(w *WireBuf) {
	if w == nil {
		return
	}
	if cap(w.B) > maxPooledCapacity {
		w.B = make([]byte, 0, 512) // shed the jumbo backing array
	}
	if poolDebug.Load() {
		b := w.B[:cap(w.B)]
		for i := range b {
			b[i] = 0xdd
		}
	}
	wirePool.Put(w)
}
