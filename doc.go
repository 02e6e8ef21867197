// Package parallex is a Go implementation of the ParalleX parallel
// computation model (Gao, Sterling, Stevens, Hereld, Zhu — "ParalleX: A
// Study of A New Parallel Computation Model", IPPS 2007).
//
// ParalleX is an asynchronous, message-driven, multithreaded execution
// model with a partitioned global address space, designed to attack the
// four sources of performance degradation — Starvation, Latency, Overhead,
// and Waiting for contention — by decoupling communication from
// computation and moving work to data. This package is the public facade
// over the runtime:
//
//   - Localities: execution domains with object stores and message-driven
//     work queues (see Runtime, Config).
//   - Active global address space: every first-class object — data,
//     actions, LCOs, processes, hardware — has a GID resolvable from
//     anywhere; objects migrate, names do not. Runtime.Migrate moves a
//     live object to any locality on any node: the object is quiesced
//     behind a migration fence (arriving parcels park, then re-route),
//     the payload crosses the wire in the parcel value codec, the home
//     directory commits a new generation, and a forwarding pointer plus
//     one-way "moved" hints hold stale senders to one forwarded hop (see
//     Runtime.Migrate).
//   - Parcels: message-driven work movement with continuation specifiers,
//     so the locus of control migrates instead of bouncing back to the
//     sender (see NewParcel, Runtime.SendFrom, Runtime.CallFrom).
//   - Local Control Objects: futures, dataflow templates, and/or gates,
//     reductions, depleted threads, metathreads (see NewFuture, NewDataflow
//     and friends) — the constructs that eliminate global barriers.
//   - Percolation: prestaging data next to a precious compute resource
//     (package internal/percolation, surfaced through the benchmarks).
//   - Echo: copy semantics for shared writable data without global cache
//     coherence (package internal/echo).
//   - Parallel processes: first-class processes spanning localities
//     (package internal/process).
//   - Multi-node machines: one logical machine spanning OS processes,
//     each hosting a contiguous locality range, joined by a frame
//     transport (package internal/transport). Configure one node by
//     setting Config.Transport together with Config.NodeID and
//     Config.NodeLocalities (the per-node locality ranges), and register
//     actions in Config.Register — a peer's parcel can arrive the
//     instant the transport starts. Parcels for non-resident localities
//     cross the wire in the parcel wire format, Wait extends quiescence
//     detection across nodes (counting parked and forwarded parcels),
//     and Migrate moves objects between nodes. The cmd/pxnode binary
//     starts one node from flags; see ARCHITECTURE.md for how each
//     paper concept maps onto these packages.
//
// A quickstart:
//
//	rt := parallex.New(parallex.Config{Localities: 4})
//	defer rt.Shutdown()
//	rt.MustRegisterAction("sum", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
//		vec := target.([]float64)
//		s := 0.0
//		for _, v := range vec {
//			s += v
//		}
//		return s, nil
//	})
//	data := rt.NewDataAt(2, []float64{1, 2, 3})
//	fut := rt.CallFrom(0, data, "sum", nil)
//	v, err := fut.Get() // 6.0
//
// The companion artifacts of the paper are reproduced under internal/:
// the LITL-X API subset (internal/litlx), the Gilgamesh II architecture
// design point and chip simulator (internal/gilgamesh), and the CSP/MPI
// baseline every experiment compares against (internal/csp). EXPERIMENTS.md
// maps each paper figure, table, and quantitative claim to a benchmark in
// bench_test.go.
package parallex
