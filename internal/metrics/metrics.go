// Package metrics provides the instrumentation used across the runtime to
// quantify the four sources of performance degradation the paper targets:
// Starvation, Latency, Overhead, and Waiting for contention (SLOW).
// Counters and histograms are safe for concurrent use and cheap enough to
// leave enabled inside benchmark inner loops.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing concurrent counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// stripes is the number of cells a Striped counter spreads over.
const stripes = 16

// Striped is a counter that many CPUs add to at once. It keeps 16 cells,
// one per stripe, each on a 128-byte block of its own, so adders on
// different stripes write no common cache line (nor an adjacent-line
// prefetch pair). A caller picks its stripe once and passes it to every
// AddAt; Value sums the cells, so the count stays exact. The zero value
// is ready.
type Striped struct {
	cells [stripes]stripedCell
}

type stripedCell struct {
	v atomic.Int64
	_ [128 - 8]byte
}

// AddAt adds n on stripe (taken modulo 16).
func (s *Striped) AddAt(stripe int, n int64) { s.cells[stripe&(stripes-1)].v.Add(n) }

// Value returns the sum of the stripes.
func (s *Striped) Value() int64 {
	var n int64
	for i := range s.cells {
		n += s.cells[i].v.Load()
	}
	return n
}

// Gauge is a concurrent instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates samples, retaining a uniform reservoir of at most
// cap exact samples for quantile estimation.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	samples []float64
	cap     int
	rng     uint64
}

// NewHistogram returns a histogram retaining at most maxSamples exact
// samples. Retention is reservoir sampling (algorithm R): after the
// reservoir fills, sample n replaces a random slot with probability
// cap/n, so the retained set stays a uniform sample of the whole stream
// and quantiles track steady state instead of freezing on the first
// maxSamples observations.
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 4096
	}
	return &Histogram{
		min: math.Inf(1), max: math.Inf(-1), cap: maxSamples,
		rng: 0x9e3779b97f4a7c15,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
	} else {
		// xorshift64*: cheap, and private to this histogram so reservoir
		// maintenance never contends on a global PRNG lock.
		h.rng ^= h.rng >> 12
		h.rng ^= h.rng << 25
		h.rng ^= h.rng >> 27
		if j := (h.rng * 0x2545f4914f6cdd1d) % uint64(h.count); j < uint64(h.cap) {
			h.samples[j] = v
		}
	}
	h.mu.Unlock()
}

// ObserveDuration records a time.Duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of all observed samples (0 if none).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample (0 if none).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if none).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0<=q<=1) estimated from the retained
// reservoir, anchored at the exact tracked stream extremes. Interior
// quantiles use midpoint (Hazen) positions — sorted sample i estimates
// the (i+0.5)/n quantile — and tail quantiles beyond the outermost
// midpoints interpolate toward the exact min/max rather than clamping to
// the reservoir endpoints: once eviction starts, the reservoir's own
// first/last samples need not be the true extremes, and a clamped p999
// of a small reservoir would silently under-report the tail.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	n := float64(len(s))
	idx := q*n - 0.5
	switch {
	case idx <= 0:
		// Between the exact min (q=0) and the first midpoint (q=0.5/n).
		return h.min + (q*n/0.5)*(s[0]-h.min)
	case idx >= n-1:
		// Between the last midpoint (q=(n-0.5)/n) and the exact max (q=1).
		lastQ := (n - 0.5) / n
		last := s[len(s)-1]
		return last + (q-lastQ)/(1-lastQ)*(h.max-last)
	default:
		lo := int(math.Floor(idx))
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
}

// SLOW aggregates the paper's four degradation sources for one run.
// All durations are in nanoseconds of wall-clock (or virtual ticks when
// produced by the DES models).
type SLOW struct {
	Starvation *Histogram // idle interval lengths per execution site
	// Latency holds split-phase call round trips, issue to reply. The
	// runtime samples it: 1 call in 64, picked by parcel ID.
	Latency *Histogram
	// Overhead holds the cost of routing one parcel, send to hand-off
	// (enqueue, transport, or the start of an inline reply). The runtime
	// samples it: 1 parcel in 64, picked by parcel ID.
	Overhead *Histogram
	Waiting  *Histogram // time blocked on contended shared resources

	// The per-parcel counters are striped by the parcel's shard.
	TasksExecuted  Striped
	ParcelsSent    Striped
	ParcelsLocal   Striped // parcels short-circuited to the local queue
	ThreadsSpawned Striped
	Suspensions    Counter
	Migrations     Counter
	Parked         Counter // parcels held by a migration fence until the move committed
}

// NewSLOW returns a SLOW record with all histograms allocated.
func NewSLOW() *SLOW {
	return &SLOW{
		Starvation: NewHistogram(0),
		Latency:    NewHistogram(0),
		Overhead:   NewHistogram(0),
		Waiting:    NewHistogram(0),
	}
}

// String renders a compact one-line summary.
func (s *SLOW) String() string {
	return fmt.Sprintf(
		"tasks=%d parcels=%d(+%d local) threads=%d susp=%d mig=%d(park %d) | starve(mean)=%.0f lat(mean)=%.0f ovh(mean)=%.0f wait(mean)=%.0f",
		s.TasksExecuted.Value(), s.ParcelsSent.Value(), s.ParcelsLocal.Value(),
		s.ThreadsSpawned.Value(), s.Suspensions.Value(),
		s.Migrations.Value(), s.Parked.Value(),
		s.Starvation.Mean(), s.Latency.Mean(), s.Overhead.Mean(), s.Waiting.Mean())
}

// IdleTracker measures starvation on one execution site: the fraction of
// time the site had no work. It is driven by the site's scheduler loop.
type IdleTracker struct {
	mu        sync.Mutex
	idleSince time.Time
	idleTotal time.Duration
	started   time.Time
	idle      bool
}

// NewIdleTracker starts tracking from now, in the busy state.
func NewIdleTracker() *IdleTracker {
	return &IdleTracker{started: time.Now()}
}

// MarkIdle records the transition to having no work.
func (t *IdleTracker) MarkIdle() {
	t.mu.Lock()
	if !t.idle {
		t.idle = true
		t.idleSince = time.Now()
	}
	t.mu.Unlock()
}

// MarkBusy records the transition back to having work.
func (t *IdleTracker) MarkBusy() {
	t.mu.Lock()
	if t.idle {
		t.idle = false
		t.idleTotal += time.Since(t.idleSince)
	}
	t.mu.Unlock()
}

// IdleFraction reports the fraction of elapsed time spent idle, in [0,1].
func (t *IdleTracker) IdleFraction() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idleTotal
	if t.idle {
		idle += time.Since(t.idleSince)
	}
	elapsed := time.Since(t.started)
	if elapsed <= 0 {
		return 0
	}
	f := float64(idle) / float64(elapsed)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
