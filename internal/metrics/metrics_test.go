package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestCounterAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(7)
	if c.Value() != 12 {
		t.Fatalf("counter = %d, want 12", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %f/%f", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
		tol  float64
	}{
		{0, 1, 0}, {1, 100, 0}, {0.5, 50.5, 1}, {0.9, 90.1, 1}, {0.99, 99.01, 1},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("q%.2f = %f, want %f±%f", c.q, got, c.want, c.tol)
		}
	}
}

func TestHistogramSampleCap(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	// Quantiles estimated from the first 10 samples only, but must not panic
	// and must stay within the observed range.
	q := h.Quantile(0.5)
	if q < 0 || q > 99 {
		t.Fatalf("median %f out of range", q)
	}
}

// Midpoint-position quantiles over a small exact sample set: with n=4
// samples {1,2,3,4}, sample i anchors the (i+0.5)/4 quantile, interior
// quantiles interpolate between midpoints, and q=0/q=1 report the exact
// extremes.
func TestHistogramQuantileMidpoints(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 4; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.125, 1}, {0.25, 1.5}, {0.375, 2}, {0.5, 2.5},
		{0.625, 3}, {0.75, 3.5}, {0.875, 4}, {1, 4},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%g = %f, want %f", c.q, got, c.want)
		}
	}
}

// Tail quantiles must anchor to the exact tracked stream extremes, not to
// whatever the reservoir happened to retain: once eviction starts the
// reservoir's own first/last samples can sit well inside the true range,
// and the old clamp made p999 of a small reservoir under-report the tail.
func TestHistogramTailQuantilesAnchorToTrackedExtremes(t *testing.T) {
	h := NewHistogram(8)
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(1); got != 10000 {
		t.Fatalf("q1 = %f, want the exact tracked max 10000", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %f, want the exact tracked min 1", got)
	}
	// p999 sits past the last reservoir midpoint (7.5/8 = 0.9375), so it
	// interpolates toward the true max: >= 0.984 of the way there no
	// matter which 8 samples survived eviction.
	if got := h.Quantile(0.999); got < 9840 || got > 10000 {
		t.Fatalf("p999 = %f, want within [9840, 10000]", got)
	}
	if p99, p999 := h.Quantile(0.99), h.Quantile(0.999); p999 < p99 {
		t.Fatalf("p999 %f < p99 %f", p999, p99)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(0)
	h.ObserveDuration(time.Microsecond)
	if h.Mean() != 1000 {
		t.Fatalf("mean = %f ns, want 1000", h.Mean())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Fatalf("count = %d, want 2000", h.Count())
	}
}

// Property: mean lies within [min, max] for any non-empty sample set.
func TestPropertyHistogramMeanBounded(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			// Bound magnitudes so the sum cannot overflow: the histogram
			// holds durations and counts, not astronomical floats.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e150 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram(0)
		for _, v := range clean {
			h.Observe(v)
		}
		// Allow tiny floating error in the mean accumulation.
		span := math.Max(1, math.Abs(h.Max())+math.Abs(h.Min()))
		eps := 1e-9 * span * float64(len(clean))
		return h.Mean() >= h.Min()-eps && h.Mean() <= h.Max()+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone non-decreasing in q.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram(0)
		for _, v := range clean {
			h.Observe(v)
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if math.IsNaN(qa) || math.IsNaN(qb) {
			return true
		}
		lo, hi := math.Min(qa, qb), math.Max(qa, qb)
		return h.Quantile(lo) <= h.Quantile(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleTracker(t *testing.T) {
	tr := NewIdleTracker()
	tr.MarkIdle()
	time.Sleep(20 * time.Millisecond)
	tr.MarkBusy()
	time.Sleep(20 * time.Millisecond)
	f := tr.IdleFraction()
	if f < 0.2 || f > 0.8 {
		t.Fatalf("idle fraction %f, want ~0.5", f)
	}
}

func TestIdleTrackerDoubleMarks(t *testing.T) {
	tr := NewIdleTracker()
	tr.MarkBusy() // already busy: no-op
	tr.MarkIdle()
	tr.MarkIdle() // already idle: no-op
	tr.MarkBusy()
	if f := tr.IdleFraction(); f < 0 || f > 1 {
		t.Fatalf("idle fraction %f out of range", f)
	}
}

func TestSLOWString(t *testing.T) {
	s := NewSLOW()
	s.TasksExecuted.AddAt(0, 3)
	s.Latency.Observe(100)
	out := s.String()
	if out == "" {
		t.Fatal("empty SLOW string")
	}
}

// TestStripedCounterExact: concurrent AddAt on every stripe sums exactly,
// and each cell fills a 128-byte block of its own.
func TestStripedCounterExact(t *testing.T) {
	if got := unsafe.Sizeof(stripedCell{}); got != 128 {
		t.Fatalf("striped cell is %d bytes, want 128", got)
	}
	var s Striped
	const adders, perStripe = 8, 1000
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perStripe; i++ {
				for st := 0; st < stripes; st++ {
					s.AddAt(st+a, int64(st+1))
				}
			}
		}(a)
	}
	wg.Wait()
	// Every adder adds 1..stripes once per round, whatever its offset.
	if got, want := s.Value(), int64(adders*perStripe*stripes*(stripes+1)/2); got != want {
		t.Fatalf("striped sum %d, want %d", got, want)
	}
	s.AddAt(-1, 1) // any int picks a stripe
	if got, want := s.Value(), int64(adders*perStripe*stripes*(stripes+1)/2+1); got != want {
		t.Fatalf("after AddAt(-1): %d, want %d", got, want)
	}
}
