package workloads

import (
	"math"
	"testing"
)

// Exact quantiles of known distributions: the full-population empirical
// quantile must hit the analytically known order statistics exactly —
// the serving latency percentiles are reported from these, so "close" is
// not good enough.
func TestQuantilesKnownDistributions(t *testing.T) {
	// 1..101 uniform: position q*100 lands on integer indices for round
	// percentiles, so every answer is exact with zero interpolation error.
	uniform := make([]float64, 101)
	for i := range uniform {
		uniform[i] = float64(i + 1)
	}
	// Shuffle-free reversal: Quantiles must sort internally.
	for i, j := 0, len(uniform)-1; i < j; i, j = i+1, j-1 {
		uniform[i], uniform[j] = uniform[j], uniform[i]
	}
	got := Quantiles(uniform, 0, 0.25, 0.5, 0.99, 1)
	for i, want := range []float64{1, 26, 51, 100, 101} {
		if got[i] != want {
			t.Errorf("uniform quantile %d = %v, want %v", i, got[i], want)
		}
	}

	// Interpolation between order statistics: {10, 20}, q=0.75 → 17.5.
	if got := Quantiles([]float64{20, 10}, 0.75); got[0] != 17.5 {
		t.Errorf("two-point q0.75 = %v, want 17.5", got[0])
	}

	// Bimodal: 99 fast requests at 1ms, one outlier at 1s. p50 stays in
	// the fast mode; p999 lands on the interpolated tail toward the
	// outlier (position 0.999*99 = 98.901 between s[98]=1e6 and s[99]=1e9).
	bimodal := make([]float64, 100)
	for i := range bimodal {
		bimodal[i] = 1e6
	}
	bimodal[42] = 1e9
	got = Quantiles(bimodal, 0.5, 0.999)
	if got[0] != 1e6 {
		t.Errorf("bimodal p50 = %v, want 1e6", got[0])
	}
	want := 1e6 + 0.901*(1e9-1e6)
	if math.Abs(got[1]-want) > 1 {
		t.Errorf("bimodal p999 = %v, want %v", got[1], want)
	}

	// Degenerate inputs.
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty p50 = %v, want 0", got[0])
	}
	if got := Quantiles([]float64{7}, 0, 0.5, 0.999, 1); got[0] != 7 || got[1] != 7 || got[2] != 7 || got[3] != 7 {
		t.Errorf("singleton quantiles = %v, want all 7", got)
	}
}

func TestOpenLoopPercentiles(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	p50, p99, p999 := (&OpenLoopResult{LatenciesNs: samples}).Percentiles()
	if p50 != 500.5 {
		t.Errorf("p50 = %v, want 500.5", p50)
	}
	if math.Abs(p99-990.01) > 1e-9 {
		t.Errorf("p99 = %v, want 990.01", p99)
	}
	if math.Abs(p999-999.001) > 1e-9 {
		t.Errorf("p999 = %v, want 999.001", p999)
	}
}
