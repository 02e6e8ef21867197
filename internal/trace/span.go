// Package trace records the distributed trace spans of sampled parcels:
// every hop of one logical operation — post, steal, wire send/recv, park,
// migrate, LCO trigger — becomes one Span sharing the parcel's trace ID,
// across continuation chains and node boundaries. The buffer is sharded by
// locality so concurrent hops on different localities never contend on one
// lock, and each shard is a fixed-size ring so recording can stay enabled
// indefinitely.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// SpanKind classifies one hop of a distributed trace.
type SpanKind uint8

// Span kinds, one per hop in the parcel lifecycle.
const (
	// SpanPost: a parcel entered the runtime at its sending locality.
	SpanPost SpanKind = iota
	// SpanSteal: an idle worker took queued work from a sibling or victim
	// (operational — not tied to one trace, recorded with trace ID 0).
	SpanSteal
	// SpanWireSend: a parcel left this node.
	SpanWireSend
	// SpanWireRecv: a parcel arrived from a peer node.
	SpanWireRecv
	// SpanPark: a parcel was held by a migration fence until the move
	// committed.
	SpanPark
	// SpanMigrate: a migration hop — an object moved, or a parcel chased
	// a forwarding pointer to a migrated target.
	SpanMigrate
	// SpanTrigger: an LCO trigger action fired at its target.
	SpanTrigger
)

var spanKindNames = [...]string{
	"post", "steal", "wire.send", "wire.recv", "park", "migrate", "trigger",
}

// String returns the span kind's name.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Span is one recorded hop of a distributed trace.
type Span struct {
	// Trace is the trace ID shared by every hop of one logical operation;
	// 0 marks an operational span (e.g. a steal) outside any trace.
	Trace uint64
	// ID identifies this span; Parent is the preceding hop's span ID
	// (0 for a trace's first hop).
	ID     uint64
	Parent uint64
	// Kind is the hop type.
	Kind SpanKind
	// Node and Loc place the hop on the machine.
	Node int32
	Loc  int32
	// When is the hop's wall-clock time in Unix nanoseconds.
	When int64
	// Action names the parcel action in flight, when one applies.
	Action string
}

// spanShards fixes the lock striping width; localities map onto shards
// modulo this.
const spanShards = 8

type spanShard struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
}

// Spans is the sharded fixed-capacity span buffer. The zero value is
// unusable; create one with NewSpans.
type Spans struct {
	shards  [spanShards]spanShard
	total   atomic.Uint64
	dropped atomic.Uint64
}

// NewSpans returns a buffer retaining up to capacity spans (default 4096),
// striped across its shards.
func NewSpans(capacity int) *Spans {
	if capacity <= 0 {
		capacity = 4096
	}
	per := capacity / spanShards
	if per < 1 {
		per = 1
	}
	s := &Spans{}
	for i := range s.shards {
		s.shards[i].buf = make([]Span, per)
	}
	return s
}

// Add records one span, overwriting the oldest in its shard once full.
func (s *Spans) Add(sp Span) {
	s.total.Add(1)
	sh := &s.shards[uint32(sp.Loc)%spanShards]
	sh.mu.Lock()
	if sh.wrapped {
		s.dropped.Add(1)
	}
	sh.buf[sh.next] = sp
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
		sh.wrapped = true
	}
	sh.mu.Unlock()
}

// Total reports how many spans were ever recorded.
func (s *Spans) Total() uint64 { return s.total.Load() }

// Dropped reports how many retained spans were overwritten after a shard
// filled.
func (s *Spans) Dropped() uint64 { return s.dropped.Load() }

// Len reports the number of currently retained spans.
func (s *Spans) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.wrapped {
			n += len(sh.buf)
		} else {
			n += sh.next
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the retained spans merged across shards in timestamp
// order.
func (s *Spans) Snapshot() []Span {
	out := make([]Span, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.wrapped {
			out = append(out, sh.buf[sh.next:]...)
			out = append(out, sh.buf[:sh.next]...)
		} else {
			out = append(out, sh.buf[:sh.next]...)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].When < out[j].When })
	return out
}
