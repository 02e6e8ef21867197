package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// TestTraceSamplingChainsSpans: with full sampling, a continuation chain
// produces post spans sharing one trace ID, ending in a trigger span at
// the future, with each hop parented by the previous one.
func TestTraceSamplingChainsSpans(t *testing.T) {
	rt := New(Config{Localities: 2, TraceSampleRate: 1})
	defer rt.Shutdown()
	rt.MustRegisterAction("obs.double", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return target.(int64) * 2, nil
	})
	obj := rt.NewDataAt(1, int64(21))
	v, err := rt.CallFrom(0, obj, "obs.double", nil).Get()
	if err != nil || v.(int64) != 42 {
		t.Fatalf("call: %v %v", v, err)
	}
	rt.Wait()

	spans := rt.Spans().Snapshot()
	if len(spans) == 0 {
		t.Fatal("full sampling recorded no spans")
	}
	// Group by trace and find the call's chain: a post for obs.double and
	// a trigger for the px.lco.set continuation, under one trace ID.
	byTrace := map[uint64][]trace.Span{}
	for _, sp := range spans {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	found := false
	for id, chain := range byTrace {
		var havePost, haveTrigger bool
		ids := map[uint64]bool{0: true}
		for _, sp := range chain {
			ids[sp.ID] = true
			if sp.Kind == trace.SpanPost && sp.Action == "obs.double" {
				havePost = true
			}
			if sp.Kind == trace.SpanTrigger && sp.Action == ActionLCOSet {
				haveTrigger = true
			}
		}
		if havePost && haveTrigger {
			found = true
			for _, sp := range chain {
				if !ids[sp.Parent] {
					t.Fatalf("trace %x: span %x has dangling parent %x", id, sp.ID, sp.Parent)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no trace chains obs.double post into a px.lco.set trigger: %+v", spans)
	}
	if rt.Metrics().Snapshot()["px.trace.sampled"] == 0 {
		t.Fatal("px.trace.sampled stayed 0 under full sampling")
	}
}

// TestTraceSamplingOffRecordsNothing: the default configuration mints no
// traces and records no spans.
func TestTraceSamplingOffRecordsNothing(t *testing.T) {
	rt := New(Config{Localities: 2})
	defer rt.Shutdown()
	obj := rt.NewDataAt(1, int64(1))
	rt.SendFrom(0, parcel.New(obj, ActionNop, nil))
	rt.Wait()
	if n := rt.Spans().Total(); n != 0 {
		t.Fatalf("%d spans recorded with sampling off", n)
	}
}

// TestTraceSampleEvery pins the rate→cadence derivation.
func TestTraceSampleEvery(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		every uint64
	}{{0, 0}, {1, 1}, {2, 1}, {0.5, 2}, {0.25, 4}, {0.001, 1000}} {
		rt := New(Config{TraceSampleRate: c.rate})
		if rt.sampleEvery != c.every {
			t.Fatalf("rate %v: sampleEvery %d, want %d", c.rate, rt.sampleEvery, c.every)
		}
		rt.Shutdown()
	}
}

// TestMetricsRegistryMatchesRuntime: the px.* bridge reads the same
// counters the runtime accessors expose.
func TestMetricsRegistryMatchesRuntime(t *testing.T) {
	rt := New(Config{Localities: 2})
	defer rt.Shutdown()
	obj := rt.NewDataAt(1, int64(5))
	for i := 0; i < 10; i++ {
		if _, err := rt.CallFrom(0, obj, ActionNop, nil).Get(); err != nil {
			t.Fatal(err)
		}
	}
	rt.Wait()
	snap := rt.Metrics().Snapshot()
	if got, want := snap["px.parcels.sent"], float64(rt.SLOW().ParcelsSent.Value()); got != want {
		t.Fatalf("px.parcels.sent %v, runtime counter %v", got, want)
	}
	if got, want := snap["px.threads.spawned"], float64(rt.SLOW().ThreadsSpawned.Value()); got != want {
		t.Fatalf("px.threads.spawned %v, runtime counter %v", got, want)
	}
	if snap["px.parcels.sent"] == 0 || snap["px.threads.spawned"] == 0 {
		t.Fatal("counters stayed 0 after 10 calls")
	}
	ph, pm, _, _ := parcel.PoolStats()
	if snap["px.pool.parcel.hits"] > float64(ph) || snap["px.pool.parcel.misses"] > float64(pm) {
		t.Fatalf("pool metrics ahead of PoolStats: snap hits=%v misses=%v, now %d/%d",
			snap["px.pool.parcel.hits"], snap["px.pool.parcel.misses"], ph, pm)
	}
}

// TestStripedRegistryValuesExact: the px.* values read from striped cells
// — SLOW's parcel counters, AGAS's translation counters, the parcel pool's
// gets — equal the increments made, when calls on every shard count at
// once from eight goroutines.
func TestStripedRegistryValuesExact(t *testing.T) {
	rt := New(Config{Localities: 2, WorkersPerLocality: 2})
	defer rt.Shutdown()
	here, there := rt.NewDataAt(0, int64(1)), rt.NewDataAt(1, int64(2))
	rt.Wait()
	read := func() map[string]float64 {
		snap := rt.Metrics().Snapshot()
		snap["pool.gets"] = snap["px.pool.parcel.hits"] + snap["px.pool.parcel.misses"]
		return snap
	}
	before := read()
	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for s := 0; s < parcel.Shards; s++ {
					for _, obj := range []agas.GID{here, there} {
						p := parcel.AcquireOn(s, obj, ActionNop, nil, parcel.Continuation{Action: ActionLCOSet})
						_, fut := rt.call(0, p, time.Time{}, false)
						if _, err := fut.Get(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	rt.Wait()
	after := read()
	// Each call sends its request and nothing else: the reply settles the
	// future in place, on the goroutine that ran the action. So a call is
	// one parcel, one thread and one pool get, and one translation — the
	// object, in its home directory, which is no cache hit. Half the calls
	// stay on locality 0 and half are sent to locality 1.
	calls := float64(goroutines * rounds * parcel.Shards * 2)
	for name, want := range map[string]float64{
		"px.parcels.local":    calls / 2,
		"px.parcels.sent":     calls / 2,
		"px.threads.spawned":  calls,
		"px.agas.resolutions": calls,
		"px.agas.cache_hits":  0,
		"pool.gets":           calls, // hits + misses: which one a get is depends on the pool
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s went up %v, want %v", name, got, want)
		}
	}
}

// TestSlowClockSamplesShardedIDs: slowClock clocks 1 parcel in 64 on every
// shard, though a shard's IDs advance in steps of parcel.Shards.
func TestSlowClockSamplesShardedIDs(t *testing.T) {
	const n = 64 * 1024
	for s := 0; s < parcel.Shards; s++ {
		clocked := 0
		for i := 0; i < n; i++ {
			p := parcel.AcquireOn(s, agas.Nil, ActionNop, nil)
			if !slowClock(p.ID).IsZero() {
				clocked++
			}
			parcel.Release(p)
		}
		if rate := float64(clocked) / n * 64; rate < 0.75 || rate > 1.25 {
			t.Errorf("shard %d: clocked %d of %d IDs, %.2f x 1/64; want 1/64 ± 25%%", s, clocked, n, rate)
		}
	}
}
