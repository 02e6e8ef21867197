package core

// Observability: the named-metric registry and the distributed-trace span
// pipeline. Metrics bridge the counters that already live on subsystems
// (locality atomics, AGAS statistics, pool and wire counters) into one
// flat px.* namespace an operator can poll over HTTP. Traces follow
// sampled parcels hop by hop — post, steal, wire send/recv, park,
// migrate, LCO trigger — across continuation chains and node boundaries:
// the sampling decision is made once at the root send, carried in the
// parcel's TraceCtx, and propagated over the wire as a frame trailer, so
// one trace ID stitches the whole operation together.

import (
	"math"

	"repro/internal/locality"
	"repro/internal/metrics"
	"repro/internal/parcel"
	"repro/internal/trace"
)

// initObservability allocates the span buffer, derives the root-sampling
// cadence from Config.TraceSampleRate, and registers the px.* metric
// bridge. It runs once in New, before the Register callback, so
// applications see a fully wired Metrics() registry.
func (r *Runtime) initObservability() {
	r.mreg = r.buildMetricsRegistry()
	// The span buffer always exists: even with a local sample rate of 0
	// this node records hops of sampled traces arriving from peers.
	r.spans = trace.NewSpans(r.cfg.TraceSpanCapacity)
	if rate := r.cfg.TraceSampleRate; rate > 0 {
		if rate >= 1 {
			r.sampleEvery = 1
		} else {
			r.sampleEvery = uint64(math.Ceil(1 / rate))
		}
	}
}

// traceParcel is the root sampling point, called once per SendFrom. An
// already-traced parcel (a continuation, a wire arrival, a failure
// delivery) keeps its inherited decision; an untraced one starts a
// sampled trace every sampleEvery-th root. With sampling off the cost is
// two branches — no allocation, preserving the zero-alloc send path.
func (r *Runtime) traceParcel(src int, p *parcel.Parcel) {
	if p.Trace.ID == 0 {
		if r.sampleEvery == 0 {
			return
		}
		if r.sampleSeq.Add(1)%r.sampleEvery != 0 {
			return
		}
		p.Trace = parcel.TraceCtx{ID: parcel.NextID(), Flags: parcel.TraceSampled}
		r.sampledRoots.Add(1)
	}
	r.emitSpan(trace.SpanPost, src, &p.Trace, p.Action)
}

// emitSpan records one hop of a sampled trace and advances the context's
// span chain: the new span's ID becomes the parent of the next hop, so
// the recorded spans form a path through localities and nodes. Unsampled
// contexts return immediately.
func (r *Runtime) emitSpan(kind trace.SpanKind, loc int, tc *parcel.TraceCtx, action string) {
	if !tc.Sampled() {
		return
	}
	sp := trace.Span{
		Trace:  tc.ID,
		ID:     parcel.NextID(),
		Parent: tc.Span,
		Kind:   kind,
		Node:   int32(r.NodeID()),
		Loc:    int32(loc),
		When:   now().UnixNano(),
		Action: action,
	}
	tc.Span = sp.ID
	r.spans.Add(sp)
}

// onSteal records operational steal spans (trace ID 0 — a steal serves
// whatever task is oldest, not one particular trace), paced by the same
// sampling cadence as root traces but on an independent sequence so steal
// volume cannot perturb which parcels get sampled.
func (r *Runtime) onSteal(loc int, remote bool) {
	if r.sampleEvery == 0 || r.opSeq.Add(1)%r.sampleEvery != 0 {
		return
	}
	action := "steal.local"
	if remote {
		action = "steal.remote"
	}
	r.spans.Add(trace.Span{
		ID:     parcel.NextID(),
		Kind:   trace.SpanSteal,
		Node:   int32(r.NodeID()),
		Loc:    int32(loc),
		When:   now().UnixNano(),
		Action: action,
	})
}

// isTriggerAction reports whether an action name is one of the LCO
// trigger family, whose dispatch is recorded as a SpanTrigger hop.
func isTriggerAction(name string) bool {
	switch name {
	case ActionLCOTrigger, ActionLCOSet, ActionLCOFail, ActionLCOSignal, ActionLCOContribute:
		return true
	}
	return false
}

// buildMetricsRegistry bridges every subsystem's existing counters into
// the px.* namespace as snapshot-time func gauges — reads of atomics that
// already exist, so registration adds nothing to any hot path.
func (r *Runtime) buildMetricsRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()

	// Scheduler: per-locality counters summed across resident localities
	// (entries for localities hosted by other nodes are nil).
	sumLocs := func(f func(l *locality.Locality) uint64) func() int64 {
		return func() int64 {
			var n uint64
			for i := range r.locs {
				if l := r.locs[i].Load(); l != nil {
					n += f(l)
				}
			}
			return int64(n)
		}
	}
	reg.RegisterFunc("px.sched.tasks", sumLocs((*locality.Locality).TasksRun))
	reg.RegisterFunc("px.sched.steals", sumLocs((*locality.Locality).Stolen))
	reg.RegisterFunc("px.sched.steals_local", sumLocs((*locality.Locality).StolenLocal))
	reg.RegisterFunc("px.sched.suspensions", sumLocs((*locality.Locality).Suspensions))
	reg.RegisterFunc("px.sched.dropped_posts", sumLocs((*locality.Locality).Dropped))
	reg.RegisterFunc("px.sched.sheds", sumLocs((*locality.Locality).Sheds))
	reg.RegisterFunc("px.sched.queue_depth", sumLocs(func(l *locality.Locality) uint64 {
		return uint64(l.QueueLen())
	}))
	reg.RegisterFunc("px.sched.queue_peak", sumLocs(func(l *locality.Locality) uint64 {
		return uint64(l.QueuePeak())
	}))

	// Parcels and threads (SLOW instrumentation).
	reg.RegisterFunc("px.parcels.sent", r.slow.ParcelsSent.Value)
	reg.RegisterFunc("px.parcels.local", r.slow.ParcelsLocal.Value)
	reg.RegisterFunc("px.parcels.parked", r.slow.Parked.Value)
	reg.RegisterFunc("px.threads.spawned", r.slow.ThreadsSpawned.Value)
	reg.RegisterFunc("px.migrations", r.slow.Migrations.Value)

	// One-shot reply slots (CallFrom, WaitLCO).
	reg.RegisterFunc("px.reply.stale", func() int64 { return int64(r.staleReplies.Load()) })
	reg.RegisterFunc("px.reply.slots_live", func() int64 {
		n := 0
		for i := range r.replies {
			n += r.replies[i].live()
		}
		return int64(n)
	})

	// AGAS translation.
	reg.RegisterFunc("px.agas.resolutions", r.agas.Resolutions.Value)
	reg.RegisterFunc("px.agas.cache_hits", r.agas.CacheHits.Value)
	reg.RegisterFunc("px.agas.forwards", func() int64 { return int64(r.agas.Forwards.Load()) })

	// Pools: hit rate of the pooled parcel and wire-buffer fast paths.
	reg.RegisterFunc("px.pool.parcel.hits", func() int64 { h, _, _, _ := parcel.PoolStats(); return int64(h) })
	reg.RegisterFunc("px.pool.parcel.misses", func() int64 { _, m, _, _ := parcel.PoolStats(); return int64(m) })
	reg.RegisterFunc("px.pool.wire.hits", func() int64 { _, _, h, _ := parcel.PoolStats(); return int64(h) })
	reg.RegisterFunc("px.pool.wire.misses", func() int64 { _, _, _, m := parcel.PoolStats(); return int64(m) })

	// Adaptive self-balancing (only when BalanceInterval enables it, so
	// a disabled balancer is invisible in the metric namespace too —
	// "is balancing on?" is answerable by probing for px.balance.ticks).
	if b := r.bal; b != nil {
		u := func(f func() uint64) func() int64 { return func() int64 { return int64(f()) } }
		reg.RegisterFunc("px.balance.ticks", u(b.eng.Ticks))
		reg.RegisterFunc("px.balance.moves", u(b.moves.Load))
		reg.RegisterFunc("px.balance.move_errors", u(b.moveErrs.Load))
		reg.RegisterFunc("px.balance.planned", u(b.eng.Planned))
		reg.RegisterFunc("px.balance.sampled", u(b.sampler.Sampled))
		reg.RegisterFunc("px.balance.sample_drops", u(b.sampler.Dropped))
		reg.RegisterFunc("px.balance.skipped_hysteresis", u(b.eng.SkippedHysteresis))
		reg.RegisterFunc("px.balance.skipped_ratelimit", u(b.eng.SkippedRateLimit))
		reg.RegisterFunc("px.balance.skipped_cooldown", u(b.eng.SkippedCooldown))
		reg.RegisterFunc("px.balance.load_reports", u(b.reports.Load))
	}

	// Tracing.
	reg.RegisterFunc("px.trace.spans", func() int64 { return int64(r.spans.Total()) })
	reg.RegisterFunc("px.trace.span_drops", func() int64 { return int64(r.spans.Dropped()) })
	reg.RegisterFunc("px.trace.sampled", func() int64 { return int64(r.sampledRoots.Load()) })

	// Cross-node transport (multi-node machines only).
	if d := r.dist; d != nil {
		reg.RegisterFunc("px.wire.sent", func() int64 { n, _ := d.wireTotals(); return n })
		reg.RegisterFunc("px.wire.recv", func() int64 { _, n := d.wireTotals(); return n })
		reg.RegisterFunc("px.wire.interned_sent", func() int64 { return int64(d.internedSent.Load()) })
		// Lane writer activity, when the transport reports it (the TCP
		// transport does): writes made, frames they carried, frames dropped
		// toward an unreachable peer, and sends that waited at a lane's
		// bound.
		if bt, ok := d.tr.(interface {
			BatchStats() (writes, frames, dropped, backpressured uint64)
		}); ok {
			reg.RegisterFunc("px.wire.batches", func() int64 { n, _, _, _ := bt.BatchStats(); return int64(n) })
			reg.RegisterFunc("px.wire.frames", func() int64 { _, n, _, _ := bt.BatchStats(); return int64(n) })
			reg.RegisterFunc("px.wire.dropped", func() int64 { _, _, n, _ := bt.BatchStats(); return int64(n) })
			reg.RegisterFunc("px.wire.backpressured", func() int64 { _, _, _, n := bt.BatchStats(); return int64(n) })
		}
		// Lane sharding and the same-host fabric, when the transport has
		// them (the TCP transport does).
		if d.laneTr != nil {
			reg.RegisterFunc("px.wire.lanes", func() int64 { return int64(d.lanes) })
		}
		if sh, ok := d.tr.(interface{ SameHostConns() uint64 }); ok {
			reg.RegisterFunc("px.wire.samehost_conns", func() int64 { return int64(sh.SameHostConns()) })
		}

		// Membership and failure detection. Gauges read d.mb at poll time:
		// the member state is wired later in New than this registry, and is
		// nil on machines without membership support.
		mbCounter := func(f func(m *memberState) uint64) func() int64 {
			return func() int64 {
				if m := d.mb; m != nil {
					return int64(f(m))
				}
				return 0
			}
		}
		reg.RegisterFunc("px.membership.version", func() int64 { return int64(d.lmap.Version()) })
		reg.RegisterFunc("px.membership.live", func() int64 { return int64(len(d.lmap.LiveNodes())) })
		reg.RegisterFunc("px.membership.deaths", mbCounter(func(m *memberState) uint64 { return m.deaths.Load() }))
		reg.RegisterFunc("px.membership.joins", mbCounter(func(m *memberState) uint64 { return m.joins.Load() }))
		reg.RegisterFunc("px.membership.rehomes", mbCounter(func(m *memberState) uint64 { return m.rehomes.Load() }))
		reg.RegisterFunc("px.membership.beats_sent", mbCounter(func(m *memberState) uint64 { return m.beatsSent.Load() }))
		reg.RegisterFunc("px.membership.beats_recv", mbCounter(func(m *memberState) uint64 { return m.beatsRecv.Load() }))
	}
	return reg
}
