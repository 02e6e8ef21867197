package schedbench

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// wireFrameSize is the payload carried per frame in the wire-path
// benchmarks. Large enough that the send path's per-frame byte handling
// (one copy onto the lane) dominates over framing bookkeeping, small
// enough that several frames share each write.
const wireFrameSize = 32 << 10

// wireSenders is the number of goroutines flooding the pair.
const wireSenders = 16

// wirePair builds a two-node TCP machine on loopback, applies tune to
// both configs, and returns the transports plus a delivered-frame
// counter fed by node 1's handler.
func wirePair(b *testing.B, tune func(*transport.TCPConfig)) ([]*transport.TCP, *atomic.Uint64) {
	b.Helper()
	nodes := make([]*transport.TCP, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		cfg := transport.TCPConfig{Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2)}
		if tune != nil {
			tune(&cfg)
		}
		tt, err := transport.NewTCP(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = tt
		addrs[i] = tt.Addr().String()
	}
	var got atomic.Uint64
	for i, tt := range nodes {
		tt.SetPeers(addrs)
		if i == 1 {
			tt.SetHandler(func(from int, frame []byte) { got.Add(1) })
		} else {
			tt.SetHandler(func(from int, frame []byte) {})
		}
		if err := tt.Start(); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		for _, tt := range nodes {
			tt.Close()
		}
	})
	return nodes, &got
}

// wireFlood pushes b.N frames from node 0 to node 1 across the given
// number of concurrent senders, sender i pinned to lane i%lanes, and
// waits for every frame to reach the receiving handler before stopping
// the clock.
func wireFlood(b *testing.B, senders int, nodes []*transport.TCP, got *atomic.Uint64) {
	b.Helper()
	lanes := nodes[0].Lanes()
	frame := make([]byte, wireFrameSize)
	for i := range frame {
		frame[i] = byte(i)
	}
	b.SetBytes(wireFrameSize)
	b.ReportAllocs()
	writes0, frames0, _, _ := nodes[0].BatchStats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		n := b.N / senders
		if s < b.N%senders {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(lane, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := nodes[0].SendLane(1, lane, frame); err != nil {
					b.Error(err)
					return
				}
			}
		}(s%lanes, n)
	}
	wg.Wait()
	for got.Load() < uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "frames/s")
	}
	if writes, frames, _, _ := nodes[0].BatchStats(); writes > writes0 {
		b.ReportMetric(float64(frames-frames0)/float64(writes-writes0), "frames/batch")
	}
}

// WireShardedFanout runs the flood over real loopback TCP with four
// lanes per peer, senders spread across them: four independent lane
// writers to the same node, the configuration the runtime drives with
// destination-GID affinity hashing.
func WireShardedFanout(b *testing.B) {
	nodes, got := wirePair(b, func(cfg *transport.TCPConfig) {
		cfg.DisableSameHost = true
		cfg.Lanes = 4
	})
	wireFlood(b, wireSenders, nodes, got)
}

// WireSameHost is the flood over a completely untuned transport — every
// knob at its default — on a loopback pair, where the transport
// auto-selects the same-host Unix-domain fabric: what colocated processes
// get out of the box. Compare against WireShardedFanout for the
// TCP-vs-fabric gap.
func WireSameHost(b *testing.B) {
	nodes, got := wirePair(b, nil)
	wireFlood(b, wireSenders, nodes, got)
	if nodes[0].SameHostConns() == 0 {
		b.Fatal("same-host fabric was not selected for a loopback pair")
	}
}
