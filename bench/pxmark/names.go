package main

// The benchmark's vocabulary: every metric pxmark prints, with its unit and
// direction. BENCHMARK.json at the repo root carries the same sets; the
// smoke test fails when the two drift. Names are never reused for a
// different quantity — a later PR that wants a new measurement adds a name.

// metricSpec describes one named metric. bound is the share of the median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists the metrics a user of the machine sees, measured with
// tracing off (-trace 0). Every workload reports all of them. The time-based
// bounds are as wide as the contract allows because this host's CPU speed
// wanders by up to 50% for tens of seconds at a time (see the README);
// allocs_per_op repeats to 0.3% and keeps the issue's 2%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.02},
}

// perLayer lists the per-layer diagnostics (-trace 1), grouped by the
// package they watch. Layers are the repo's packages; "process" is the Go
// runtime under them, "harness" is pxmark itself, and "stage" is the
// budget of one traced request. The first three are end-to-end metrics in
// the issue's table that cannot be gated by a relative bound: fail_share is
// 0 on a healthy machine, p99_us spread up to 23% of its median over ten
// runs on this host, and move_p50_us exists on one workload only.
var perLayer = []metricSpec{
	{name: "fail_share", unit: "1", better: "lower"},
	{name: "p99_us", unit: "us", better: "lower"},
	{name: "move_p50_us", unit: "us", better: "lower"},

	{name: "core.callfrom_us", unit: "us", better: "lower"},
	{name: "core.parcels_sent_per_op", unit: "1", better: "lower"},
	{name: "core.parcels_local_per_op", unit: "1", better: "lower"},
	{name: "core.parked_per_move", unit: "1", better: "lower"},
	{name: "core.drain_ms", unit: "ms", better: "lower"},
	{name: "core.shutdown_ms", unit: "ms", better: "lower"},

	{name: "agas.resolve_cached_ns", unit: "ns", better: "lower"},
	{name: "agas.resolve_authoritative_ns", unit: "ns", better: "lower"},
	{name: "agas.commit_migration_ns", unit: "ns", better: "lower"},
	{name: "agas.cache_hit_share", unit: "1", better: "higher"},
	{name: "agas.forwards_per_op", unit: "1", better: "lower"},

	{name: "parcel.encode_ns", unit: "ns", better: "lower"},
	{name: "parcel.decode_ns", unit: "ns", better: "lower"},
	{name: "parcel.wire_bytes_per_op", unit: "B", better: "lower"},
	{name: "parcel.pool_miss_share", unit: "1", better: "lower"},
	{name: "parcel.wirebuf_miss_share", unit: "1", better: "lower"},

	{name: "locality.post_to_run_us", unit: "us", better: "lower"},
	{name: "locality.tasks_per_op", unit: "1", better: "lower"},
	{name: "locality.steals_per_op", unit: "1", better: "lower"},
	{name: "locality.suspensions_per_op", unit: "1", better: "lower"},
	{name: "locality.queue_peak", unit: "count", better: "lower"},
	{name: "locality.idle_share", unit: "1", better: "lower"},

	{name: "transport.frame_rtt_us", unit: "us", better: "lower"},
	{name: "transport.send_us", unit: "us", better: "lower"},
	{name: "transport.frames_per_op", unit: "1", better: "lower"},
	{name: "transport.frames_per_batch", unit: "1", better: "higher"},
	{name: "transport.batch_handoffs_per_op", unit: "1", better: "lower"},
	{name: "transport.backpressured", unit: "count", better: "lower"},
	{name: "transport.samehost_conns", unit: "count", better: "higher"},
	{name: "transport.interned_share", unit: "1", better: "higher"},

	{name: "lco.set_to_get_ns", unit: "ns", better: "lower"},
	{name: "lco.wait_us", unit: "us", better: "lower"},
	{name: "lco.trigger_frames_per_op", unit: "1", better: "lower"},
	{name: "lco.trigger_retried", unit: "count", better: "lower"},

	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "process.bytes_per_op", unit: "B", better: "lower"},
	{name: "process.goroutines_peak", unit: "count", better: "lower"},

	{name: "harness.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "harness.p999_us", unit: "us", better: "lower"},
	{name: "harness.window_peak", unit: "count", better: "lower"},

	{name: "stage.post_to_send_us", unit: "us", better: "lower"},
	{name: "stage.wire_out_us", unit: "us", better: "lower"},
	{name: "stage.serve_us", unit: "us", better: "lower"},
	{name: "stage.wire_back_us", unit: "us", better: "lower"},
	{name: "stage.deliver_us", unit: "us", better: "lower"},
	{name: "stage.sum_share", unit: "1", better: "higher"},
	{name: "trace.overhead_share", unit: "1", better: "lower"},
}
