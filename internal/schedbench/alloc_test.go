package schedbench

import "testing"

// TestHotPathsAllocationFree runs the pooled parcel hot paths as
// benchmarks and requires each to report 0 allocs/op: the node-local
// parcel flood, with and without the dormant balancer's knobs staged, the
// parcel rally, and the wire codec round trip. It calls the bodies
// directly, so renaming or deleting one is a compile error here.
//
// A flood's backlog can outgrow what the pools hold, and each parcel past
// the previous peak is a pool miss; on two CPUs that is 0.3-0.9 misses
// per parcel, so a run can round up to 1 allocs/op without any allocation
// on the path. Each body therefore gets three runs, as a -count 3
// benchmark would, and passes on the first that reports 0. One heap
// allocation per parcel reports at least 1 on every run.
func TestHotPathsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; exact alloc counts only hold without -race")
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"ParcelFlood", func(b *testing.B) { ParcelFlood(b, 4) }},
		{"ParcelPingPong", ParcelPingPong},
		{"WireRoundTrip", WireRoundTrip},
		{"BalancerOff", func(b *testing.B) { BalancerOff(b, 4) }},
	} {
		for run := 1; ; run++ {
			r := testing.Benchmark(bm.fn)
			t.Logf("%s run %d: %d ops, %d allocs", bm.name, run, r.N, r.MemAllocs)
			if r.N == 0 {
				// testing.Benchmark swallows b.Fatal and hands back a zero result.
				t.Errorf("%s: benchmark failed", bm.name)
				break
			}
			if r.AllocsPerOp() == 0 {
				break
			}
			if run == 3 {
				t.Errorf("%s: %d allocs/op on each of %d runs, want 0", bm.name, r.AllocsPerOp(), run)
				break
			}
		}
	}
}
