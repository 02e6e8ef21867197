package main

// One workload, start to finish: bring-up, warm-up, a latency phase with
// one op outstanding, a throughput phase with the workload's window
// outstanding, answer and end-state checks, teardown, leak check — all
// under a watchdog that turns a hang into a report and a nonzero exit.
//
// With tracing off the run yields the end-to-end metrics. The traced run
// yields the per-layer ones from three sources: px.* counter deltas over
// an untraced throughput phase, harness spans joined to rt.Spans() hops
// over a sampled latency phase on a second machine, and isolated probes
// of each layer's public functions.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// Phase numbers seed the streams; each phase of a run draws its own ops.
const (
	phaseSetup = iota
	phaseWarm
	phaseLatency
	phaseThroughput
	phaseTraced
)

// traceSampleRate is the share of root parcels the traced run samples. The
// runtime samples every Nth root, and on a one-node machine an op's request
// and its reply are both roots of the same counter: an even N would lock
// onto one of the two for the whole run, so N is odd.
const traceSampleRate = 1.0 / 17

type options struct {
	seed    uint64
	seconds float64       // measured time per run, split over its phases
	warm    time.Duration // per machine, discarded
	setups  int           // bring-ups per end-to-end run; setup_s is their median
	window  int           // overrides the workload's window when > 0 (wedge hook)
	outDir  string
	// onWedge receives the partial report when the deadline passes; the
	// command prints it and exits nonzero.
	onWedge func(*report)
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Wedged    bool               `json:"wedged,omitempty"`
	Phase     string             `json:"phase,omitempty"` // where a wedged run stopped
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Problems  []string           `json:"problems,omitempty"`
	Findings  []string           `json:"findings,omitempty"`
}

// runner carries one run's state; the watchdog reads phase and tallies
// while the run may be stuck.
type runner struct {
	w       workload
	o       options
	rep     *report
	tallies []tally

	mu    sync.Mutex
	phase string
}

func (r *runner) enter(phase string) {
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

func (r *runner) problem(format string, a ...any) {
	r.rep.Problems = append(r.rep.Problems, fmt.Sprintf(format, a...))
}

// runWorkload runs w once and returns its report. An error means the run
// could not be carried out at all (bring-up failed); a run that finished
// with wrong answers returns a report with Correct false.
func runWorkload(w workload, o options, traced bool) (*report, error) {
	if o.window > 0 {
		w.window = o.window
	}
	r := &runner{
		w: w, o: o,
		rep: &report{
			Workload: w.name, Trace: traced,
			Metrics: make(map[string]float64), Samples: make(map[string]int),
		},
		tallies: make([]tally, runtime.GOMAXPROCS(0)),
	}
	// The deadline covers the planned phases with room for bring-up,
	// probes and teardown; a healthy run finishes far inside it.
	deadline := time.Duration(o.seconds*float64(time.Second))*2 + o.warm*2 + 20*time.Second
	done := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		t := time.NewTimer(deadline)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			r.mu.Lock()
			r.rep.Wedged, r.rep.Phase = true, r.phase
			r.mu.Unlock()
			for i := range r.tallies {
				r.rep.Attempted += r.tallies[i].attempted.Load()
				r.rep.Failed += r.tallies[i].failed.Load()
			}
			r.rep.Problems = append(r.rep.Problems, fmt.Sprintf(
				"wedged in phase %q: no progress to the end of the run within %v", r.rep.Phase, deadline))
			o.onWedge(r.rep)
		}
	}()
	baseline := runtime.NumGoroutine() - 1 // the watchdog is ours
	var err error
	if traced {
		err = r.layers()
	} else {
		err = r.endToEnd()
	}
	close(done)
	watch.Wait()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.enter("leak check")
	if leak := waitGoroutines(baseline); leak != nil {
		r.problem("%v", leak)
	}
	r.rep.Correct = r.rep.Failed == 0 && len(r.rep.Problems) == 0
	return r.rep, nil
}

// bringUp builds a machine, installs the workload and answers one op.
func (r *runner) bringUp(tr traceOpts) (*machine, session, time.Duration, error) {
	t0 := time.Now()
	m, err := newMachine(r.w.nodes, r.w.register, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	ses, err := r.w.install(m, r.o.seed)
	if err != nil {
		m.stop()
		return nil, nil, 0, err
	}
	first := ses.streams(phaseSetup, 1)[0]
	first.prepare()
	fut := first.call()
	tick := time.NewTicker(100 * time.Millisecond)
	v, err := await(fut, time.Now(), tick.C)
	tick.Stop()
	r.rep.Attempted++
	if !first.verify(v, err) {
		r.rep.Failed++
		r.problem("first op after bring-up: wrong answer %v (%v)", v, err)
	}
	return m, ses, time.Since(t0), nil
}

// tearDown finishes the session and stops the machine, recording every
// violated invariant; it returns the drain and shutdown times.
func (r *runner) tearDown(m *machine, ses session) (drain, shutdown time.Duration) {
	end := m.counters()
	for _, p := range ses.finish() {
		r.problem("%s", p)
	}
	if n := end["px.lco.trigger.retried"]; n != 0 {
		// Answers stay right (trigger IDs dedup the copies), but a frame
		// went unacknowledged for 25 ms: a stall worth knowing about.
		r.rep.Findings = append(r.rep.Findings, fmt.Sprintf("px.lco.trigger.retried = %v: trigger frames were retransmitted", n))
	}
	if end["px.wire.sent"] > 0 && end["px.wire.samehost_conns"] == 0 {
		r.problem("no same-host connection: the machine fell back to TCP only (is TMPDIR too long for a Unix socket path?)")
	}
	drain, shutdown, errs := m.stop()
	for _, err := range errs {
		r.problem("runtime error: %v", err)
	}
	return drain, shutdown
}

func (r *runner) count(p *phaseResult) {
	r.rep.Attempted += p.attempted
	r.rep.Failed += p.failed
}

func (r *runner) span(share float64) time.Duration {
	return time.Duration(r.o.seconds * share * float64(time.Second))
}

// endToEnd is the untraced run: the run shape of the README on one
// machine, after o.setups-1 throwaway bring-ups whose only purpose is to
// make setup_s a median.
func (r *runner) endToEnd() error {
	r.enter("setup")
	var m *machine
	var ses session
	var setups []float64
	for i := 0; i < max(r.o.setups, 1); i++ {
		if m != nil {
			r.tearDown(m, ses)
		}
		var took time.Duration
		var err error
		if m, ses, took, err = r.bringUp(traceOpts{}); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	r.enter("warm-up")
	runPhase(m, ses, phaseSpec{phase: phaseWarm, window: r.w.window, dur: r.o.warm}, r.tallies)
	r.enter("latency")
	lat := runPhase(m, ses, phaseSpec{phase: phaseLatency, window: 1, dur: r.span(0.5), keepLat: true}, r.tallies)
	r.count(&lat)
	r.enter("throughput")
	thr := runPhase(m, ses, phaseSpec{phase: phaseThroughput, window: r.w.window, dur: r.span(0.5)}, r.tallies)
	r.count(&thr)
	r.enter("teardown")
	r.tearDown(m, ses)

	ops := float64(max(thr.answered, 1))
	mx := r.rep.Metrics
	mx["setup_s"] = median(setups)
	mx["ops_per_s"] = ops / thr.elapsed().Seconds()
	mx["p50_us"] = quantile(lat.lat, 0.50)
	mx["cpu_us_per_op"] = float64((thr.after.cpu - thr.before.cpu).Microseconds()) / ops
	mx["allocs_per_op"] = float64(thr.after.mallocs-thr.before.mallocs) / ops
	r.rep.Samples["setup_s"] = len(setups)
	r.rep.Samples["ops_per_s"] = int(thr.answered)
	r.rep.Samples["p50_us"] = len(lat.lat)
	return nil
}

// procPeak samples the Go runtime every 100 ms until stopped, keeping the
// peaks a phase-boundary reading would miss.
type procPeak struct {
	heapBytes  uint64
	goroutines uint64
	stop       chan struct{}
	done       sync.WaitGroup
}

func startProcPeak() *procPeak {
	p := &procPeak{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.heapBytes = max(p.heapBytes, s[0].Value.Uint64())
			p.goroutines = max(p.goroutines, s[1].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *procPeak) finish() {
	close(p.stop)
	p.done.Wait()
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// layers is the traced run: counters and process figures from an untraced
// machine, spans and stages from a sampled one, then the probes.
func (r *runner) layers() error {
	mx := r.rep.Metrics

	r.enter("setup")
	m, ses, _, err := r.bringUp(traceOpts{})
	if err != nil {
		return err
	}
	r.enter("warm-up")
	runPhase(m, ses, phaseSpec{phase: phaseWarm, window: r.w.window, dur: r.o.warm}, r.tallies)
	r.enter("latency")
	lat := runPhase(m, ses, phaseSpec{phase: phaseLatency, window: 1, dur: r.span(0.25), keepLat: true}, r.tallies)
	r.count(&lat)
	r.enter("throughput")
	peaks := startProcPeak()
	thr := runPhase(m, ses, phaseSpec{phase: phaseThroughput, window: r.w.window, dur: r.span(0.25)}, r.tallies)
	peaks.finish()
	r.count(&thr)
	var moves []int64
	if mv, ok := ses.(mover); ok {
		moves = mv.movesBetween(thr.before.when, thr.after.when)
	}
	parcels := ses.opParcels()
	r.enter("teardown")
	drain, shutdown := r.tearDown(m, ses)

	ops := float64(max(thr.answered, 1))
	mx["core.parcels_sent_per_op"] = thr.perOp("px.parcels.sent")
	mx["core.parcels_local_per_op"] = thr.perOp("px.parcels.local")
	mx["core.parked_per_move"] = share(thr.delta("px.parcels.parked"), float64(len(moves)))
	mx["core.drain_ms"] = float64(drain.Microseconds()) / 1e3
	mx["core.shutdown_ms"] = float64(shutdown.Microseconds()) / 1e3
	hits := thr.delta("px.agas.cache_hits")
	mx["agas.cache_hit_share"] = share(hits, hits+thr.delta("px.agas.resolutions"))
	mx["agas.forwards_per_op"] = thr.perOp("px.agas.forwards")
	poolMiss, wireMiss := thr.delta("px.pool.parcel.misses"), thr.delta("px.pool.wire.misses")
	mx["parcel.pool_miss_share"] = share(poolMiss, poolMiss+thr.delta("px.pool.parcel.hits"))
	mx["parcel.wirebuf_miss_share"] = share(wireMiss, wireMiss+thr.delta("px.pool.wire.hits"))
	mx["locality.tasks_per_op"] = thr.perOp("px.sched.tasks")
	mx["locality.steals_per_op"] = thr.perOp("px.sched.steals")
	mx["locality.suspensions_per_op"] = thr.perOp("px.sched.suspensions")
	mx["locality.queue_peak"] = thr.after.counters["px.sched.queue_peak"]
	mx["locality.idle_share"] = share(thr.after.idleSec-thr.before.idleSec, thr.elapsed().Seconds())
	// Frames the counters can see: parcels and LCO triggers, and the
	// receipt each of them is answered with on arrival.
	frames := thr.delta("px.wire.sent") + thr.delta("px.wire.recv") +
		thr.delta("px.lco.trigger.sent") + thr.delta("px.lco.trigger.recv")
	mx["transport.frames_per_op"] = thr.perOp("px.wire.sent")
	mx["transport.frames_per_batch"] = share(frames, thr.delta("px.wire.batches"))
	mx["transport.batch_handoffs_per_op"] = thr.perOp("px.wire.batch_handoffs")
	mx["transport.backpressured"] = thr.delta("px.wire.backpressured")
	mx["transport.samehost_conns"] = thr.after.counters["px.wire.samehost_conns"]
	mx["transport.interned_share"] = share(thr.delta("px.wire.interned_sent"), thr.delta("px.wire.sent"))
	mx["lco.trigger_frames_per_op"] = thr.perOp("px.lco.trigger.sent")
	mx["lco.trigger_retried"] = thr.delta("px.lco.trigger.retried")
	mx["process.gc_cycles"] = float64(thr.after.gcCycles - thr.before.gcCycles)
	mx["process.gc_pause_ms"] = float64(thr.after.gcPause-thr.before.gcPause) / 1e6
	mx["process.heap_peak_mb"] = float64(peaks.heapBytes) / (1 << 20)
	mx["process.bytes_per_op"] = float64(thr.after.bytes-thr.before.bytes) / ops
	mx["process.goroutines_peak"] = float64(peaks.goroutines)
	mx["p99_us"] = quantile(lat.lat, 0.99)
	mx["harness.p999_us"] = quantile(lat.lat, 0.999)
	mx["harness.window_peak"] = float64(thr.windowPeak)
	slices.Sort(moves)
	mx["move_p50_us"] = quantile(moves, 0.5)
	r.rep.Samples["p99_us"] = len(lat.lat) / 100 // samples beyond the percentile
	r.rep.Samples["harness.p999_us"] = len(lat.lat) / 1000
	r.rep.Samples["move_p50_us"] = len(moves)

	// The sampled machine: same workload, one op outstanding, every
	// seventeenth root parcel traced hop by hop.
	r.enter("traced setup")
	m, ses, _, err = r.bringUp(traceOpts{sampleRate: traceSampleRate, spanCap: 1 << 19})
	if err != nil {
		return err
	}
	r.enter("traced warm-up")
	runPhase(m, ses, phaseSpec{phase: phaseWarm, window: r.w.window, dur: r.o.warm}, r.tallies)
	r.enter("traced latency")
	trc := runPhase(m, ses, phaseSpec{phase: phaseTraced, window: 1, dur: r.span(0.25), keepLat: true, traced: true}, r.tallies)
	r.count(&trc)
	spans := m.spans()
	r.enter("traced teardown")
	r.tearDown(m, ses)

	st := joinStages(trc.recs, spans)
	p50, tracedP50 := quantile(lat.lat, 0.5), quantile(trc.lat, 0.5)
	mx["core.callfrom_us"] = st.callfromUs
	mx["lco.wait_us"] = st.waitUs
	mx["harness.self_ns_per_op"] = st.selfNs
	for i, name := range stageNames {
		mx[name] = st.stageUs[i]
	}
	mx["stage.sum_share"] = share(st.sumUs(), tracedP50)
	mx["trace.overhead_share"] = share(tracedP50-p50, p50)
	r.rep.Samples["stage.sum_share"] = st.tiled
	r.rep.Samples["trace.overhead_share"] = len(trc.lat)
	if r.w.name == "kv-remote" && (mx["stage.sum_share"] < 0.8 || mx["stage.sum_share"] > 1.2) {
		r.rep.Findings = append(r.rep.Findings, fmt.Sprintf(
			"stage budget does not close: stage p50s sum to %.1f us of a traced p50 of %.1f us (%d tiled traces)",
			st.sumUs(), tracedP50, st.tiled))
	}
	if err := writeTrace(filepath.Join(r.o.outDir, "trace-"+r.w.name+".json"), r.w.name, st); err != nil {
		r.problem("trace file: %v", err)
	}
	mx["fail_share"] = share(float64(r.rep.Failed), float64(r.rep.Attempted))

	r.enter("probes")
	if err := runProbes(mx, parcels, r.span(0.25)); err != nil {
		r.problem("probe: %v", err)
	}
	return nil
}
