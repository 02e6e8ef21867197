package main

// Probes: each layer's public functions timed in isolation, outside any
// machine, on the workload's real parcel shape where a shape applies. A
// probe answers "what does this layer cost when nothing else is in the
// way", the floor the stage budget of a whole op sits on.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	parallex "repro"
	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/locality"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// perCall times fn in batches until budget is spent and returns the median
// batch's cost per call in nanoseconds.
func perCall(budget time.Duration, fn func()) float64 {
	const batch = 256
	var per []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(per)
}

// eachUntil calls sample until budget is spent and returns the medians, in
// microseconds, of the one or two durations each call reports.
func eachUntil(budget time.Duration, sample func() (a, b time.Duration, err error)) (float64, float64, error) {
	var as, bs []int64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		a, b, err := sample()
		if err != nil {
			return 0, 0, err
		}
		as, bs = append(as, a.Nanoseconds()), append(bs, b.Nanoseconds())
	}
	slices.Sort(as)
	slices.Sort(bs)
	return quantile(as, 0.5), quantile(bs, 0.5), nil
}

// runProbes fills in every probe-sourced metric, spending about budget in
// total. parcels is the workload's per-op parcel mix, request first.
func runProbes(mx map[string]float64, parcels []weightedParcel, budget time.Duration) error {
	each := budget / 9
	probeAGAS(mx, each)
	frame := probeParcel(mx, parcels, each)
	if err := probeLocality(mx, each); err != nil {
		return err
	}
	probeFuture(mx, each)
	return probeTransport(mx, frame, each)
}

// probeAGAS times translation on a standalone four-locality service: a
// cached resolve from a foreign locality, the authoritative directory
// consult behind a miss, and the directory commit every migration pays.
func probeAGAS(mx map[string]float64, each time.Duration) {
	svc := agas.NewService(totalLocalities)
	g := svc.Alloc(2, agas.KindData)
	svc.ResolveCached(clientLoc, g) // fill the cache line the loop then hits
	mx["agas.resolve_cached_ns"] = perCall(each, func() { svc.ResolveCached(clientLoc, g) })
	mx["agas.resolve_authoritative_ns"] = perCall(each, func() { svc.ResolveAuthoritative(clientLoc, g) })
	gen, to := uint64(1), 2
	mx["agas.commit_migration_ns"] = perCall(each, func() {
		gen, to = gen+1, (to+1)%totalLocalities
		svc.CommitMigration(g, to, gen)
	})
}

// probeParcel times the codec on the op's request parcel and prices the
// op in encoded bytes. It returns the encoded request as the frame the
// transport probe carries.
func probeParcel(mx map[string]float64, parcels []weightedParcel, each time.Duration) []byte {
	var bytesPerOp float64
	for _, wp := range parcels {
		bytesPerOp += wp.perOp * float64(len(wp.p.Encode(nil)))
	}
	mx["parcel.wire_bytes_per_op"] = bytesPerOp
	req := parcels[0].p
	buf := req.Encode(nil)
	mx["parcel.encode_ns"] = perCall(each, func() { buf = req.Encode(buf[:0]) })
	mx["parcel.decode_ns"] = perCall(each, func() {
		p, _, err := parcel.DecodePooled(buf)
		if err != nil {
			panic(err) // our own encoding a line above
		}
		parcel.Release(p)
	})
	return buf
}

// probeLocality times the scheduler hop: Post on an idle two-worker
// locality to the first instruction of the task.
func probeLocality(mx map[string]float64, each time.Duration) error {
	l := locality.New(0, locality.Config{Workers: workersPerLocality})
	defer l.Close()
	ran := make(chan time.Time)
	us, _, err := eachUntil(each, func() (time.Duration, time.Duration, error) {
		t0 := time.Now()
		if err := l.Post(func() { ran <- time.Now() }); err != nil {
			return 0, 0, err
		}
		return (<-ran).Sub(t0), 0, nil
	})
	mx["locality.post_to_run_us"] = us
	return err
}

// probeFuture times the LCO wake-up: Set on a future to the return of a
// Get already blocked on it.
func probeFuture(mx map[string]float64, each time.Duration) {
	futs := make(chan *lco.Future)
	woke := make(chan time.Time)
	go func() {
		for f := range futs {
			f.Get()
			woke <- time.Now()
		}
	}()
	defer close(futs)
	ns, _, _ := eachUntil(each, func() (time.Duration, time.Duration, error) {
		f := lco.NewFuture()
		futs <- f
		// Let the getter reach its wait; a Set that beats it there would
		// time the fast path instead.
		for spin := time.Now(); time.Since(spin) < 20*time.Microsecond; {
			runtime.Gosched()
		}
		t0 := time.Now()
		f.Set(nil)
		return (<-woke).Sub(t0), 0, nil
	})
	mx["lco.set_to_get_ns"] = ns * 1e3
}

// probeTransport times the frame service between two default-config TCP
// endpoints on this host (they meet over the same-host fabric, as the
// machine's nodes do): Send's blocking time, and the round trip of a
// frame the far side echoes from its handler, as core acknowledges
// parcels.
func probeTransport(mx map[string]float64, frame []byte, each time.Duration) (err error) {
	ends := make([]*transport.TCP, 2)
	addrs := make([]string, 2)
	for i := range ends {
		if ends[i], err = parallex.NewTCPTransport(parallex.TCPTransportConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2),
		}); err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
		defer ends[i].Close()
		addrs[i] = ends[i].Addr().String()
	}
	back := make(chan struct{}, 1)
	ends[0].SetHandler(func(int, []byte) { back <- struct{}{} })
	ends[1].SetHandler(func(from int, f []byte) { ends[1].Send(from, f) }) // a lost echo shows as the timeout below
	for i, e := range ends {
		e.SetPeers(addrs)
		if err := e.Start(); err != nil {
			return fmt.Errorf("transport probe: start %d: %w", i, err)
		}
	}
	timeout := time.NewTimer(opTimeout)
	defer timeout.Stop()
	roundTrip := func() (time.Duration, time.Duration, error) {
		t0 := time.Now()
		if err := ends[0].Send(1, frame); err != nil {
			return 0, 0, err
		}
		sent := time.Since(t0)
		timeout.Reset(opTimeout)
		select {
		case <-back:
			return sent, time.Since(t0), nil
		case <-timeout.C:
			return 0, 0, errors.New("transport probe: echo lost")
		}
	}
	if _, _, err := roundTrip(); err != nil { // dial and handshake
		return err
	}
	mx["transport.send_us"], mx["transport.frame_rtt_us"], err = eachUntil(2*each, roundTrip)
	return err
}
