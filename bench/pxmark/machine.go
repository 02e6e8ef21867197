package main

// Machine bring-up and teardown through the public API only: the same
// sockets, handshake, same-host fabric and batching a pxnode machine uses,
// with every node living inside this process so nothing can be left
// running behind it.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	parallex "repro"
)

const (
	localitiesPerNode  = 2
	workersPerLocality = 2
	// totalLocalities is the same on every workload: two nodes of two
	// localities, or one node of four, so kv-local sees exactly the
	// request stream kv-remote does.
	totalLocalities = 4
)

// traceOpts are the only Config fields a run varies.
type traceOpts struct {
	sampleRate float64
	spanCap    int
}

// machine is one in-process ParalleX machine of one or two nodes.
type machine struct {
	rts  []*parallex.Runtime
	born time.Time // just before the first worker started: the idle trackers' epoch
}

// newMachine builds a machine with default Config and TCPConfig. With two
// nodes each binds 127.0.0.1:0 and the pair meets over the same-host
// fabric; with one node there is no transport at all.
func newMachine(nodes int, register func(*parallex.Runtime), tr traceOpts) (*machine, error) {
	m := &machine{born: time.Now()}
	if nodes == 1 {
		m.rts = []*parallex.Runtime{parallex.New(parallex.Config{
			Localities:         totalLocalities,
			WorkersPerLocality: workersPerLocality,
			Register:           register,
			TraceSampleRate:    tr.sampleRate,
			TraceSpanCapacity:  tr.spanCap,
		})}
		return m, nil
	}
	ranges := make([]parallex.LocalityRange, nodes)
	pairs := make([][2]int, nodes)
	for i := range ranges {
		ranges[i] = parallex.LocalityRange{Lo: i * localitiesPerNode, Hi: (i + 1) * localitiesPerNode}
		pairs[i] = [2]int{ranges[i].Lo, ranges[i].Hi}
	}
	tcps := make([]*parallex.TCPTransport, nodes)
	addrs := make([]string, nodes)
	for i := range tcps {
		t, err := parallex.NewTCPTransport(parallex.TCPTransportConfig{
			Self:   i,
			Listen: "127.0.0.1:0",
			Peers:  make([]string, nodes),
			Ranges: pairs,
		})
		if err != nil {
			for _, open := range tcps[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("tcp transport for node %d: %w", i, err)
		}
		tcps[i] = t
		addrs[i] = t.Addr().String()
	}
	for i, t := range tcps {
		t.SetPeers(addrs)
		m.rts = append(m.rts, parallex.New(parallex.Config{
			Transport:          t,
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: workersPerLocality,
			Register:           register,
			TraceSampleRate:    tr.sampleRate,
			TraceSpanCapacity:  tr.spanCap,
		}))
	}
	return m, nil
}

// nodeOf maps a locality to the runtime hosting it.
func (m *machine) nodeOf(loc int) *parallex.Runtime {
	if len(m.rts) == 1 {
		return m.rts[0]
	}
	return m.rts[loc/localitiesPerNode]
}

// counters sums every node's px.* registry into one machine-wide view.
// Pool statistics are process-global, so only node 0's copy counts, and
// the queue-peak gauge takes the worst node rather than a sum.
func (m *machine) counters() map[string]float64 {
	sum := make(map[string]float64)
	for i, rt := range m.rts {
		for k, v := range rt.Metrics().Snapshot() {
			switch {
			case strings.HasPrefix(k, "px.pool."):
				if i == 0 {
					sum[k] = v
				}
			case k == "px.sched.queue_peak":
				sum[k] = max(sum[k], v)
			default:
				sum[k] += v
			}
		}
	}
	return sum
}

// idleSeconds reports the machine's accumulated worker idle time, averaged
// over localities, reconstructed from the cumulative fractions the
// runtime exposes.
func (m *machine) idleSeconds() float64 {
	var f float64
	for _, rt := range m.rts {
		for _, v := range rt.IdleFractions() {
			f += v
		}
	}
	return f / totalLocalities * time.Since(m.born).Seconds()
}

// stop drains and shuts the machine down in node order, returning how long
// the drain and the shutdown took and any asynchronous errors the nodes
// recorded.
func (m *machine) stop() (drain, shutdown time.Duration, errs []error) {
	t0 := time.Now()
	m.rts[0].Wait()
	t1 := time.Now()
	for i, rt := range m.rts {
		rt.Shutdown()
		for _, err := range rt.Errors() {
			errs = append(errs, fmt.Errorf("node %d: %w", i, err))
		}
	}
	return t1.Sub(t0), time.Since(t1), errs
}

// waitGoroutines polls until the goroutine count returns to the baseline
// (plus slack for runtime-internal helpers); the stacks of what is left
// are the error text.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			return fmt.Errorf("goroutines leaked: %d now vs %d at start\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
