package parallex_test

// The wide-window case the closed-loop tests never reach: hundreds of
// parcels outstanding between two nodes at once. A read goroutine that
// answers each parcel with a blocking send wedges here — both socket
// buffers fill, both readers sit in a write, nobody reads — so the parcel
// path must never send from the reader.

import (
	"testing"
	"time"

	parallex "repro"
	"repro/internal/workloads"
)

// TestDistServeWideWindowTCP keeps 512 KV gets outstanding from node 0 to a
// shard on node 1 over the real transport, 50 rounds, every reply
// collected. A wedged CallFrom blocks its caller, so the rounds run on
// their own goroutine and the test holds the deadline.
func TestDistServeWideWindowTCP(t *testing.T) {
	const rounds, window = 50, 512
	ranges := distRanges[:2]
	var trs [2]*parallex.TCPTransport
	addrs := make([]string, len(trs))
	for i := range trs {
		tr, err := newWireTCP(parallex.TCPTransportConfig{
			Self:   i,
			Listen: "127.0.0.1:0",
			Peers:  make([]string, len(trs)),
			Ranges: [][2]int{{ranges[0].Lo, ranges[0].Hi}, {ranges[1].Lo, ranges[1].Hi}},
		})
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
		trs[i], addrs[i] = tr, tr.Addr().String()
	}
	rts := make([]*parallex.Runtime, len(trs))
	for i, tr := range trs {
		tr.SetPeers(addrs)
		rts[i] = parallex.New(parallex.Config{
			Transport:          tr,
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: 2,
			Register:           workloads.RegisterKVService,
		})
		workloads.InstallKVShards(rts[i])
	}

	shard := workloads.KVShardGID(ranges[1].Lo)
	args := parallex.NewArgs().String("k").Encode()
	progress := make(chan struct{}, rounds) // one token per round: never blocks the runner
	go func() {
		defer close(progress)
		futs := make([]*parallex.Future, window)
		for round := 0; round < rounds; round++ {
			for i := range futs {
				futs[i] = rts[0].CallFrom(0, shard, workloads.ActionKVGet, args)
			}
			for i, f := range futs {
				if _, err := f.Get(); err != nil {
					t.Errorf("round %d call %d: %v", round, i, err)
					return
				}
			}
			progress <- struct{}{}
		}
	}()

	deadline := time.After(30 * time.Second)
	for completed := 0; ; completed++ {
		select {
		case _, running := <-progress:
			if !running {
				stopMachine(t, rts, true)
				return
			}
		case <-deadline:
			// No teardown: closing a wedged transport waits on the very
			// goroutines that are stuck.
			t.Fatalf("wedged with %d parcels outstanding: %d of %d rounds completed", window, completed, rounds)
		}
	}
}
