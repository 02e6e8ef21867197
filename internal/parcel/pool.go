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
// opt into recycling via Acquire and DecodePooledInterned.

var parcelPool = sync.Pool{New: func() any {
	parcelPoolMisses.Add(1)
	return &Parcel{}
}}

// Pool hit/miss accounting. A miss is a pool Get that had to allocate (the
// sync.Pool New func ran); everything else is a hit — the zero-allocation
// steady state. The counters are process-global, like the pools they
// observe, and are exported to the runtime's metric registry.
var (
	parcelPoolGets   atomic.Uint64
	parcelPoolMisses atomic.Uint64
	wirePoolGets     atomic.Uint64
	wirePoolMisses   atomic.Uint64
)

// PoolStats reports the parcel and WireBuf pools' hit/miss counters since
// process start. Misses never exceed gets: the get is counted before the
// pool can run its allocating New func.
func PoolStats() (parcelHits, parcelMisses, wireHits, wireMisses uint64) {
	parcelMisses = parcelPoolMisses.Load()
	parcelHits = parcelPoolGets.Load() - parcelMisses
	wireMisses = wirePoolMisses.Load()
	wireHits = wirePoolGets.Load() - wireMisses
	return
}

// Acquire returns a pooled parcel initialized like New. The continuation
// stack is copied into the parcel's own storage (reused across recycles),
// so the caller's slice is not retained. args is referenced, not copied:
// the caller must not mutate it until the parcel is released. Pass the
// parcel to Release when dispatch completes.
func Acquire(dest agas.GID, action string, args []byte, cont ...Continuation) *Parcel {
	parcelPoolGets.Add(1)
	p := parcelPool.Get().(*Parcel)
	p.pooled = true
	p.released = false
	p.ID = NextID()
	p.Dest = dest
	p.Action = action
	p.AID = NoAID
	p.Args = args
	p.Cont = append(p.Cont[:0], cont...)
	p.ownsCont = true
	p.Src = 0
	p.Hops = 0
	p.Trace = TraceCtx{}
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

// AcquireValue is Acquire for the parcel a continuation receives: its
// argument record is the single value v (Args.Value, what core's px.lco.*
// actions read), encoded once, in place, in the parcel's own store.
func AcquireValue(dest agas.GID, action string, v any, cont ...Continuation) (*Parcel, error) {
	p := Acquire(dest, action, nil, cont...)
	a := p.OwnArgs()
	if err := a.Value(v); err != nil {
		Release(p)
		return nil, err
	}
	p.Args = a.Encode()
	return p, nil
}

// blank returns a pooled zero parcel for decodeInto to fill.
func blank() *Parcel {
	parcelPoolGets.Add(1)
	p := parcelPool.Get().(*Parcel)
	p.pooled = true
	p.released = false
	p.ID = 0
	p.Dest = agas.Nil
	p.Action = ""
	p.AID = NoAID
	p.Args = nil
	p.Cont = p.Cont[:0]
	p.ownsCont = true
	p.Src = 0
	p.Hops = 0
	p.Trace = TraceCtx{}
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
