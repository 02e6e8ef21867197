package parallex_test

// The serving tier over a real 3-node TCP machine: pxload's open-loop
// generator library drives the sharded KV service end to end. Two
// scenarios gate in CI's multinode job — forced overload must shed with
// typed verdicts and lose nothing, and requests retried after a timeout
// must each complete once. Nothing drops a request: the wire loses no
// frame while its peer lives, and a node-local parcel moves by pointer.
// Retry after a crash is TestDistServeChaos's subject.

import (
	"fmt"
	"testing"
	"time"

	parallex "repro"
	"repro/internal/workloads"
)

// startServeMachine builds the 3-node TCP serving machine: KV actions
// registered on every node (sheddable, behind admission control when
// admit > 0), one shard per locality at its well-known name.
func startServeMachine(t testing.TB, admit int) []*parallex.Runtime {
	t.Helper()
	rts := startObsMachine(t, func(node int, cfg *parallex.Config) {
		cfg.AdmitLimit = admit
		cfg.Register = workloads.RegisterKVService
	})
	for _, rt := range rts {
		workloads.InstallKVShards(rt)
	}
	return rts
}

// TestDistServeOverloadTCP is the forced-overload smoke CI gates on: an
// instantaneous burst against one-deep admission queues must shed, every
// shed must come back as a typed overload verdict (never a hang), and
// every request must end in a verdict — completed or explicitly rejected,
// zero lost.
func TestDistServeOverloadTCP(t *testing.T) {
	rts := startServeMachine(t, 1)
	// Drive from node 2's first locality: most keys hash to shards on
	// nodes 0 and 1, so both the requests and their shed verdicts cross
	// the wire.
	res := workloads.RunOpenLoop(rts[2], workloads.OpenLoopConfig{
		Rate:         1e7, // effectively one burst
		Requests:     300,
		SrcLoc:       rts[2].NodeRange(2).Lo,
		Retries:      2,
		RetryBackoff: 100 * time.Microsecond,
		Timeout:      10 * time.Second,
	})
	if res.Shed == 0 {
		t.Fatal("overload burst shed nothing")
	}
	if res.Lost != 0 || res.TimedOut != 0 || res.Failed != 0 {
		t.Fatalf("lost=%d timedout=%d failed=%d, want all 0", res.Lost, res.TimedOut, res.Failed)
	}
	if res.Completed+res.Rejected != res.Issued {
		t.Fatalf("completed %d + rejected %d != issued %d", res.Completed, res.Rejected, res.Issued)
	}
	var sheds uint64
	for _, rt := range rts {
		sheds += rt.Sheds()
	}
	if sheds == 0 {
		t.Fatal("no runtime recorded a shed")
	}
	stopMachine(t, rts, true)
}

// TestDistServeShedsAtTheTarget: under an admission limit the KV actions,
// though direct, are queued through admission control on the node that
// serves them, so a burst from node 0 at node 1's shards is shed on node
// 1. A direct path that skipped admission would shed nothing there.
func TestDistServeShedsAtTheTarget(t *testing.T) {
	rts := startServeMachine(t, 1)
	target := rts[1].NodeRange(1)
	var futs []*parallex.Future
	for i := 0; len(futs) < 400; i++ {
		key := fmt.Sprintf("burst-%d", i)
		loc := workloads.KVKeyLocality(key, rts[0].Localities())
		if loc < target.Lo || loc >= target.Hi {
			continue
		}
		args := parallex.NewArgs().String(key).Encode()
		futs = append(futs, rts[0].CallFrom(0, workloads.KVShardGID(loc), workloads.ActionKVGet, args))
	}
	for _, f := range futs {
		if _, err := f.Get(); err != nil && !parallex.IsOverloaded(err) {
			t.Fatalf("get: %v, want an answer or the overload verdict", err)
		}
	}
	if rts[1].Sheds() == 0 {
		t.Fatalf("%d gets in one burst at node 1's shards under AdmitLimit 1: node 1 shed none", len(futs))
	}
	stopMachine(t, rts, true)
}

// TestDistServeFaultRecoveryTCP is the retry-after-timeout scenario: both
// workers of the locality the client calls from are held busy for the
// first 100ms of the run, so requests for that locality's own shard queue
// behind them, attempts time out and are re-issued. The KV actions are
// direct, and a direct action sent from its own node would run on the
// caller and never meet the held workers; they are also sheddable, and a
// sheddable action under an admission limit is queued. So every node runs
// with an AdmitLimit far above anything this run queues: it sheds nothing,
// and the requests queue. (Replies settle where they land and do not wait
// for the workers.) Every request must complete once, with nothing lost,
// failed or rejected; each abandoned attempt's late reply resolves its own
// future, so none is counted stale; and the run must report a full
// p50/p99/p999 latency profile.
func TestDistServeFaultRecoveryTCP(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	rts := startObsMachine(t, func(node int, cfg *parallex.Config) {
		cfg.AdmitLimit = 1 << 20
		cfg.Register = func(rt *parallex.Runtime) {
			workloads.RegisterKVService(rt)
			rt.MustRegisterAction("serve.hold", func(*parallex.Context, any, *parallex.ArgsReader) (any, error) {
				entered <- struct{}{}
				<-release
				return nil, nil
			})
		}
	})
	for _, rt := range rts {
		workloads.InstallKVShards(rt)
	}
	src := rts[2].NodeRange(2).Lo
	for i := 0; i < 2; i++ {
		rts[2].SendFrom(src, parallex.NewParcel(rts[2].NewDataAt(src, struct{}{}), "serve.hold", nil))
	}
	<-entered
	<-entered
	time.AfterFunc(100*time.Millisecond, func() { close(release) })
	res := workloads.RunOpenLoop(rts[2], workloads.OpenLoopConfig{
		Rate:     3000,
		Requests: 240,
		SrcLoc:   src,
		Timeout:  20 * time.Millisecond,
		Retries:  8,
	})
	if res.Lost != 0 || res.Failed != 0 || res.Rejected != 0 {
		t.Fatalf("lost=%d failed=%d rejected=%d, want all 0", res.Lost, res.Failed, res.Rejected)
	}
	if res.Completed != res.Issued {
		t.Fatalf("completed %d of %d issued", res.Completed, res.Issued)
	}
	if res.TimedOut == 0 || res.Retried == 0 {
		t.Fatalf("timedout=%d retried=%d: the held locality delayed nothing", res.TimedOut, res.Retried)
	}
	rts[0].Wait()
	var stale float64
	for _, rt := range rts {
		stale += rt.Metrics().Snapshot()["px.reply.stale"]
	}
	if stale != 0 {
		t.Fatalf("%v replies counted stale; every late reply has its own abandoned future", stale)
	}
	p50, p99, p999 := res.Percentiles()
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Fatalf("latency profile p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	stopMachine(t, rts, true)
}
