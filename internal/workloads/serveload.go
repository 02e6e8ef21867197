package workloads

// Open-loop load generation for the serving tier. The generator is
// arrival-rate-clocked: request i is dispatched at start + i/Rate
// regardless of how many earlier requests have completed, the way real
// clients keep arriving at an overloaded service. Latency is measured
// from the request's SCHEDULED arrival, not its actual dispatch, so a
// stalled generator cannot hide queueing delay — the coordinated-omission
// correction (see EXPERIMENTS.md, "Open-loop latency methodology").
//
// Every request resolves through a future continuation: a completed
// action sets it, an admission rejection fails it with the typed overload
// verdict, and the generator retries shed or timed-out requests with
// exponential backoff. A request that exhausts its retry budget without a
// verdict counts as lost — the number the serving smoke test pins to
// zero.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

// OpenLoopConfig parameterizes one open-loop run against an installed KV
// service (RegisterKVService + InstallKVShards).
type OpenLoopConfig struct {
	// Rate is the arrival rate in requests per second. Default 1000.
	Rate float64
	// Requests is the total number of arrivals to schedule. Default 1000.
	Requests int
	// Keys is the key-space size; keys are drawn uniformly. Default 1024.
	Keys int
	// PutFraction is the fraction of arrivals that are puts (the rest are
	// gets). Default 0.1.
	PutFraction float64
	// ValueBytes is the payload size of each put. Default 64.
	ValueBytes int
	// Seed makes the key/op sequence reproducible. Default 1.
	Seed uint64
	// SrcLoc is the resident locality requests are issued from (and
	// response futures are homed at).
	SrcLoc int
	// Timeout bounds one attempt's wait for a verdict before the request
	// is re-issued. Nothing drops a request while its node lives, but a
	// node that goes silent before its death is declared would otherwise
	// hold the client until the node-lost verdict. Default 2s.
	Timeout time.Duration
	// Retries is how many times a shed or timed-out request is re-issued
	// before it counts as lost. Default 8.
	Retries int
	// RetryBackoff is the delay before the first re-issue, doubling per
	// attempt. Default 1ms.
	RetryBackoff time.Duration
}

func (c *OpenLoopConfig) fill() {
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.Keys <= 0 {
		c.Keys = 1024
	}
	if c.PutFraction < 0 || c.PutFraction > 1 {
		c.PutFraction = 0.1
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 8
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
}

// OpenLoopResult aggregates one run. Counters that say "attempts" can
// exceed Requests: a request retried twice contributes three attempts.
type OpenLoopResult struct {
	// Issued is the number of scheduled arrivals dispatched.
	Issued int
	// Completed is the number of requests that resolved with a value.
	Completed int
	// Shed counts attempts rejected with the typed overload verdict.
	Shed int
	// TimedOut counts attempts that produced no verdict within Timeout.
	TimedOut int
	// Retried counts re-issues (each after a shed, a node-lost verdict, or
	// a timeout).
	Retried int
	// NodeLost counts attempts that resolved with the typed node-lost
	// verdict: the shard's node died mid-request. The request is retried —
	// once the survivors re-home the dead node's localities the retry
	// lands on the adopted shard.
	NodeLost int
	// HintsHonored counts retries whose backoff came from the server's
	// retry-after hint (carried inside the shed verdict) instead of the
	// generator's own exponential schedule.
	HintsHonored int
	// Failed is the number of requests that resolved with a non-overload
	// error.
	Failed int
	// Rejected is the number of requests whose retry budget ended in a
	// typed verdict (overload or node-lost): the service refused them,
	// explicitly. Under sustained forced overload this is the expected
	// outcome for the excess arrivals.
	Rejected int
	// Lost is the number of requests whose retry budget ended with NO
	// verdict at all (a timeout) — zero on a healthy machine, because
	// sheds produce typed verdicts and completions always resolve the
	// future. This is the number the serving smoke test pins to zero.
	Lost int
	// LatenciesNs holds one sample per completed request: verdict time
	// minus SCHEDULED arrival time, in nanoseconds.
	LatenciesNs []float64
	// Elapsed is the wall time from first scheduled arrival to last
	// verdict.
	Elapsed time.Duration
}

// Percentiles returns the p50, p99 and p999 latencies in nanoseconds,
// exact over every completed request's sample.
func (r *OpenLoopResult) Percentiles() (p50, p99, p999 float64) {
	ps := Quantiles(r.LatenciesNs, 0.5, 0.99, 0.999)
	return ps[0], ps[1], ps[2]
}

// Quantiles returns the q-quantiles of the full sample set, one per
// element of qs, sorting a copy once. Unlike a reservoir histogram this
// is exact: samples is the complete population (per-request latencies of
// one run), the empirical quantile interpolates linearly between order
// statistics (position q*(n-1)), and q<=0 / q>=1 are the exact extremes.
// An empty sample set yields all zeros.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	for i, q := range qs {
		switch {
		case q <= 0:
			out[i] = s[0]
		case q >= 1:
			out[i] = s[len(s)-1]
		default:
			idx := q * float64(len(s)-1)
			lo := int(idx)
			frac := idx - float64(lo)
			if lo+1 >= len(s) {
				out[i] = s[len(s)-1]
			} else {
				out[i] = s[lo]*(1-frac) + s[lo+1]*frac
			}
		}
	}
	return out
}

// splitmix64 is the per-request hash that derives each arrival's key and
// operation from (seed, index), so concurrent dispatchers need no shared
// RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunOpenLoop drives cfg.Requests arrivals at cfg.Rate against the KV
// shards of rt's machine and blocks until every request has a final
// verdict (completed, failed, or lost). The shard table is the well-known
// one: keys route by KVKeyLocality across all localities of the machine,
// so on a distributed machine most requests cross the wire.
func RunOpenLoop(rt *core.Runtime, cfg OpenLoopConfig) *OpenLoopResult {
	cfg.fill()
	locs := rt.Localities()
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte(i)
	}

	var (
		mu        sync.Mutex
		latencies []float64
		wg        sync.WaitGroup

		completed, shed, timedOut, retried, failed, rejected, nodeLost, lost, hinted atomic.Int64
	)
	// Honored hints feed the serving metrics too, so an operator watching
	// px.serve.* sees whether clients are pacing off server suggestions.
	hintCounter := rt.Metrics().Counter("px.serve.retry_hints")
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		sched := start.Add(time.Duration(i) * interval)
		// The arrival clock: wait for the scheduled instant, never for
		// completions. A late loop (scheduler hiccup) dispatches
		// immediately and the latency accounting below still charges the
		// request from its scheduled time.
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		h := splitmix64(cfg.Seed + uint64(i))
		key := kvKeyName(h % uint64(cfg.Keys))
		isPut := float64(h>>32&0xffff)/65536.0 < cfg.PutFraction
		wg.Add(1)
		go func(sched time.Time) {
			defer wg.Done()
			dest := KVShardGID(KVKeyLocality(key, locs))
			var args []byte
			action := ActionKVGet
			if isPut {
				action = ActionKVPut
				args = parcel.NewArgs().String(key).Bytes(value).Encode()
			} else {
				args = parcel.NewArgs().String(key).Encode()
			}
			backoff := cfg.RetryBackoff
			for attempt := 0; ; attempt++ {
				fut := rt.CallFrom(cfg.SrcLoc, dest, action, args)
				// lastVerdict: this attempt ended with a typed retryable
				// verdict (shed or node-lost), not a silent timeout.
				lastVerdict := false
				// hint: the server's suggested backoff, when the verdict
				// carried one.
				var hint time.Duration
				select {
				case <-fut.Done():
					_, err := fut.Get()
					switch {
					case err == nil:
						completed.Add(1)
						lat := float64(time.Since(sched).Nanoseconds())
						mu.Lock()
						latencies = append(latencies, lat)
						mu.Unlock()
						return
					case core.IsOverloaded(err):
						shed.Add(1)
						lastVerdict = true
						hint, _ = core.RetryAfter(err)
					case core.IsNodeLost(err):
						// The shard's node died. Retry: the survivors
						// re-home its localities, and the retry routes to
						// the adopted shard once membership converges.
						nodeLost.Add(1)
						lastVerdict = true
					default:
						failed.Add(1)
						return
					}
				case <-time.After(cfg.Timeout):
					timedOut.Add(1)
				}
				if attempt >= cfg.Retries {
					if lastVerdict {
						rejected.Add(1)
					} else {
						lost.Add(1)
					}
					return
				}
				retried.Add(1)
				if hint > 0 {
					// The shedding node told us when to come back; honor it
					// exactly instead of the blind exponential schedule. The
					// schedule's own clock keeps doubling regardless, so a
					// request whose NEXT verdict carries no hint (a timeout,
					// a node loss) resumes where the schedule would have
					// been, not back at the start.
					hinted.Add(1)
					hintCounter.Inc()
					time.Sleep(hint)
				} else {
					time.Sleep(backoff)
				}
				backoff *= 2
			}
		}(sched)
	}
	wg.Wait()
	return &OpenLoopResult{
		Issued:       cfg.Requests,
		Completed:    int(completed.Load()),
		Shed:         int(shed.Load()),
		TimedOut:     int(timedOut.Load()),
		Retried:      int(retried.Load()),
		Failed:       int(failed.Load()),
		Rejected:     int(rejected.Load()),
		NodeLost:     int(nodeLost.Load()),
		Lost:         int(lost.Load()),
		HintsHonored: int(hinted.Load()),
		LatenciesNs:  latencies,
		Elapsed:      time.Since(start),
	}
}

// kvKeyName formats key index n as the canonical load-generator key.
func kvKeyName(n uint64) string {
	// Fixed-width keys keep per-request allocation flat.
	const digits = "0123456789abcdef"
	var b [12]byte
	copy(b[:], "kv.")
	for i := 0; i < 9; i++ {
		b[3+i] = digits[n>>(uint(8-i)*4)&0xf]
	}
	return string(b[:])
}
