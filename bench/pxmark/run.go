package main

// The closed-loop engine: generator goroutines pump their streams for a
// fixed time, with a bounded window of ops outstanding, timing each op on
// the nanosecond clock. A phase wraps one pump run with process-level
// accounting (CPU, allocations, px.* counter deltas).

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	parallex "repro"
)

// opTimeout bounds one op's wait for its answer; an op past it counts as
// failed and its client moves on.
const opTimeout = 2 * time.Second

// opRec is the harness's span record of one op in the traced run: the
// request span runs start→end, its children are args (start→argsEnd),
// core.callfrom (argsEnd→callEnd), lco.wait (callEnd→waitEnd) and verify
// (waitEnd→end). Times are Unix nanoseconds, the clock rt.Spans() uses.
type opRec struct {
	start, argsEnd, callEnd, waitEnd, end int64
}

// tally is one generator goroutine's running count, readable by the
// watchdog while the goroutine may be blocked inside the transport.
type tally struct {
	attempted, answered, failed atomic.Int64
	_                           [40]byte // keep neighbours off this cache line
}

type pumpOut struct {
	lat        []int64 // per-op latency in ns (latency phase)
	recs       []opRec // traced run only
	windowPeak int
}

type slot struct {
	s     stream
	fut   *parallex.Future
	start time.Time
	rec   opRec
}

// await blocks until fut resolves or the op is older than opTimeout. tick
// only has to fire often enough to notice a timeout; a stale tick costs
// one clock read.
func await(fut *parallex.Future, start time.Time, tick <-chan time.Time) (any, error) {
	for {
		select {
		case <-fut.Done():
			return fut.Get()
		case <-tick:
			if time.Since(start) > opTimeout {
				return nil, errOpTimeout
			}
		}
	}
}

// pump drives streams until the deadline, each stream holding at most one
// op outstanding, then collects what is still in flight. With keepLat it
// records every op's latency (start of prepare → answer in hand); with
// traced it also records the harness spans.
func pump(streams []stream, until time.Time, t *tally, keepLat, traced bool, out *pumpOut) {
	slots := make([]slot, len(streams))
	for i := range slots {
		slots[i].s = streams[i]
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	inflight := 0
	for {
		issued := false
		for i := range slots {
			sl := &slots[i]
			if sl.fut != nil {
				v, err := await(sl.fut, sl.start, tick.C)
				waitEnd := time.Now()
				ok := sl.s.verify(v, err)
				sl.fut = nil
				inflight--
				t.answered.Add(1)
				if !ok {
					t.failed.Add(1)
				}
				if keepLat {
					out.lat = append(out.lat, waitEnd.Sub(sl.start).Nanoseconds())
				}
				if traced {
					sl.rec.waitEnd = waitEnd.UnixNano()
					sl.rec.end = time.Now().UnixNano()
					out.recs = append(out.recs, sl.rec)
				}
			}
			start := time.Now()
			if !start.Before(until) {
				continue
			}
			sl.start = start
			t.attempted.Add(1)
			if traced {
				sl.rec.start = start.UnixNano()
				sl.s.prepare()
				sl.rec.argsEnd = time.Now().UnixNano()
				sl.fut = sl.s.call()
				sl.rec.callEnd = time.Now().UnixNano()
			} else {
				sl.s.prepare()
				sl.fut = sl.s.call()
			}
			inflight++
			out.windowPeak = max(out.windowPeak, inflight)
			issued = true
		}
		if !issued && inflight == 0 {
			return
		}
	}
}

// usage is a point-in-time reading of everything a phase reports as a
// delta.
type usage struct {
	when     time.Time
	cpu      time.Duration // process user+sys
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	counters map[string]float64
	idleSec  float64
}

func readUsage(m *machine) usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		when:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
		counters: m.counters(),
		idleSec:  m.idleSeconds(),
	}
}

// phaseSpec says what one pump run does.
type phaseSpec struct {
	phase   int // seeds the streams
	window  int // ops outstanding in total
	dur     time.Duration
	keepLat bool
	traced  bool
}

// phaseResult is one pump run over all generator goroutines.
type phaseResult struct {
	before, after usage
	attempted     int64
	answered      int64
	failed        int64
	lat           []int64 // sorted
	recs          []opRec
	windowPeak    int
}

func (p *phaseResult) elapsed() time.Duration { return p.after.when.Sub(p.before.when) }

// delta reports how far a px.* counter advanced over the phase.
func (p *phaseResult) delta(name string) float64 {
	return p.after.counters[name] - p.before.counters[name]
}

// perOp divides a counter's advance by the ops answered.
func (p *phaseResult) perOp(name string) float64 {
	return p.delta(name) / float64(max(p.answered, 1))
}

// runPhase pumps sp.window streams for sp.dur on at most GOMAXPROCS
// generator goroutines, each holding its share of the window. tallies must
// have one entry per goroutine it may start; the watchdog reads them.
func runPhase(m *machine, ses session, sp phaseSpec, tallies []tally) phaseResult {
	streams := ses.streams(sp.phase, sp.window)
	gens := min(runtime.GOMAXPROCS(0), sp.window, len(tallies))
	outs := make([]pumpOut, gens)
	// Sized for the fastest workload so appends never reallocate inside
	// the timed loop; a latency phase has one generator.
	room := int(sp.dur.Seconds()*150e3) + 1024
	if sp.keepLat {
		outs[0].lat = make([]int64, 0, room)
	}
	if sp.traced {
		outs[0].recs = make([]opRec, 0, room)
	}
	for i := range tallies {
		tallies[i].attempted.Store(0)
		tallies[i].answered.Store(0)
		tallies[i].failed.Store(0)
	}
	// Every phase starts from a collected heap, so GC work inside it is
	// the phase's own.
	runtime.GC()
	res := phaseResult{before: readUsage(m)}
	until := res.before.when.Add(sp.dur)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		lo, hi := g*sp.window/gens, (g+1)*sp.window/gens
		wg.Add(1)
		go func() {
			defer wg.Done()
			pump(streams[lo:hi], until, &tallies[g], sp.keepLat, sp.traced, &outs[g])
		}()
	}
	wg.Wait()
	res.after = readUsage(m)
	for g := range outs {
		res.attempted += tallies[g].attempted.Load()
		res.answered += tallies[g].answered.Load()
		res.failed += tallies[g].failed.Load()
		res.lat = append(res.lat, outs[g].lat...)
		res.recs = append(res.recs, outs[g].recs...)
		res.windowPeak += outs[g].windowPeak
	}
	slices.Sort(res.lat)
	return res
}

// quantile returns the q-quantile of sorted ns samples in microseconds.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
