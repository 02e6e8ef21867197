package parallex_test

// Elastic membership and node-failure survival, proven over real TCP:
// a three-node machine loses a node to a deterministic frame-counted
// crash (the victim's process keeps running but goes mute — kill -9 as
// the rest of the machine sees it), the phi-accrual detector declares it
// dead, the survivors re-home its localities, pending work charged to
// the corpse releases so Wait unblocks, and futures depending on state
// homed there fail with the typed node-lost verdict. A second scenario
// grows the machine: a fourth node joins a running three-node machine
// through the membership section of its handshake hello, with no
// restart of the incumbents. The serving-tier chaos test kills a node
// under open-loop KV load and requires every request to end in a
// verdict — completed or explicitly rejected — with zero lost.

import (
	"os"
	"runtime"
	"testing"
	"time"

	parallex "repro"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// fastMembership is the CI-friendly detector tuning: 10ms beats and a
// 250ms hard silence floor, so a death is declared in well under a
// second instead of the production default 3s.
var fastMembership = parallex.MembershipConfig{
	HeartbeatInterval: 10 * time.Millisecond,
	DeadAfter:         250 * time.Millisecond,
}

// startMemberMachine builds a three-node TCP machine (startObsMachine)
// with membership on fast knobs. Node 2's endpoint sits behind the
// returned fault injector, which arm, when set, arms before the machine
// starts. The returned addresses let later nodes join the machine.
func startMemberMachine(t testing.TB, arm func(*transport.Faulty), register func(*parallex.Runtime)) ([]*parallex.Runtime, *transport.Faulty, []string) {
	t.Helper()
	victim := &transport.Faulty{}
	if arm != nil {
		arm(victim)
	}
	addrs := make([]string, 3)
	rts := startObsMachine(t, func(node int, cfg *parallex.Config) {
		addrs[node] = cfg.Transport.(*transport.TCP).Addr().String()
		if node == 2 {
			victim.Transport, cfg.Transport = cfg.Transport, victim
		}
		cfg.Membership, cfg.Register = fastMembership, register
	})
	return rts, victim, addrs
}

// awaitDead polls until node `dead` is declared dead as rt sees it.
func awaitDead(t *testing.T, rt *parallex.Runtime, dead int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, m := range rt.Members() {
			if m.Node == dead && !m.Alive {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never declared node %d dead: %+v", rt.NodeID(), dead, rt.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistMembershipNodeDeath is the kill-a-node smoke: node 2 goes mute
// mid-run under a frame-counted crash. The survivors must declare it
// dead, adopt its localities, release the work charged to it (so Wait
// returns), and fail the stranded futures with the typed node-lost
// verdict — all with no goroutine leaks.
func TestDistMembershipNodeDeath(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// The victim's wire kills it after 80 frames in or out (enough to
	// deliver the first several heartbeats — the detector needs positive
	// evidence of life before it may declare a death): every further
	// frame is silently destroyed.
	kill := func(w *transport.Faulty) { w.KillAfter = 80 }
	// dist.hold answers with its tag once the test releases that tag.
	entered := make(chan int64, 2)
	release := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	rts, victim, _ := startMemberMachine(t, kill, func(rt *parallex.Runtime) {
		registerTestActions(rt)
		rt.MustRegisterAction("dist.hold", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
			tag := args.Int64()
			if err := args.Err(); err != nil {
				return nil, err
			}
			entered <- tag
			<-release[tag]
			return tag, nil
		})
	})

	// State homed on the doomed node, installed while it is still alive.
	data := rts[2].NewDataAt(4, []float64{1, 2, 3})
	lcoGID := rts[2].NewDistFutureAt(5)

	// A call the doomed node makes from locality 4, held open on node 1
	// until after the death: its reply is named by node 2's first slot
	// there.
	held := rts[1].NewDataAt(2, struct{}{})
	rts[2].CallFrom(4, held, "dist.hold", parallex.NewArgs().Int64(1).Encode())
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the doomed node's call never reached node 1")
	}

	// Prove the machine works pre-crash.
	if v, err := rts[0].CallFrom(0, data, "dist.sum", nil).Get(); err != nil || v.(float64) != 6 {
		t.Fatalf("pre-crash call: %v %v", v, err)
	}

	// Wait for the crash to arm (the victim starts destroying frames).
	deadline := time.Now().Add(10 * time.Second)
	for victim.Silenced() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kill fault never armed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// In-flight dependencies on the now-mute node: a remote wait on its
	// LCO and a split-phase call to its data. Neither can ever complete
	// there; both must fail with the typed verdict once the death is
	// declared, instead of hanging forever.
	waitFut := rts[0].WaitLCO(0, lcoGID)
	callFut := rts[0].CallFrom(1, data, "dist.sum", nil)

	awaitDead(t, rts[0], 2)
	awaitDead(t, rts[1], 2)

	if _, err := waitFut.Get(); !parallex.IsNodeLost(err) {
		t.Fatalf("WaitLCO on a dead node's LCO: got %v, want a node-lost verdict", err)
	}
	if _, err := callFut.Get(); !parallex.IsNodeLost(err) {
		t.Fatalf("CallFrom to a dead node's data: got %v, want a node-lost verdict", err)
	}

	// The dead node's localities were re-homed onto the lowest live
	// survivor, which spun up real scheduling machinery for them: posts
	// to an adopted locality execute.
	if !rts[0].Resident(4) || !rts[0].Resident(5) {
		t.Fatalf("node 0 did not adopt localities 4,5: members %+v", rts[0].Members())
	}
	// The adopter starts locality 4's reply slots afresh, so its first call
	// from there may sit in the stripe, slot index and generation the
	// corpse's call had. The corpse's reply, released now, routes to
	// locality 4's new host; it names node 2 as its minter and must not
	// resolve node 0's slot.
	mine := rts[0].CallFrom(4, held, "dist.hold", parallex.NewArgs().Int64(2).Encode())
	<-entered
	close(release[1])
	deadline = time.Now().Add(10 * time.Second)
	for rts[0].Metrics().Snapshot()["px.reply.stale"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the corpse's reply never reached the adopter of its locality")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, err, ok := mine.TryGet(); ok {
		t.Fatalf("a reply minted by the dead node resolved the adopter's slot: %v, %v", v, err)
	}
	close(release[2])
	if v, err := mine.Get(); err != nil || v.(int64) != 2 {
		t.Fatalf("the adopter's own call: %v, %v; want 2", v, err)
	}

	adopted := rts[0].NewDataAt(4, []float64{40, 2})
	if v, err := rts[1].CallFrom(2, adopted, "dist.sum", nil).Get(); err != nil || v.(float64) != 42 {
		t.Fatalf("call to adopted locality: %v %v", v, err)
	}

	// Quiescence across the survivors: the corpse's lanes have left the
	// sums, so Wait terminates.
	rts[0].Wait()
	rts[1].Wait()

	// Both survivors recorded the declared death (and nothing hung).
	for _, i := range []int{0, 1} {
		found := false
		for _, err := range rts[i].Errors() {
			if parallex.IsNodeLost(err) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d recorded no node-lost error: %v", i, rts[i].Errors())
		}
	}

	// The corpse is torn down abruptly (it cannot drain — the machine
	// moved on without it); the survivors shut down cleanly.
	rts[2].Terminate()
	rts[0].Shutdown()
	rts[1].Shutdown()
	waitGoroutines(t, baseline)
}

// TestDistMembershipJoin grows a running machine: a fourth node comes up
// with the full four-range map and announces itself through its
// handshake hello's membership section. The incumbents admit it without
// restarting, AGAS grows to cover its localities, and split-phase calls
// into the new localities complete — in both directions.
func TestDistMembershipJoin(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rts, _, addrs := startMemberMachine(t, nil, registerTestActions)

	// The joiner: node 3, hosting fresh localities [6,8). Its transport
	// knows every incumbent; the incumbents learn its address from the
	// hello when it dials in.
	joinRanges := append(append([]parallex.LocalityRange{}, distRanges...), parallex.LocalityRange{Lo: 6, Hi: 8})
	hsRanges := make([][2]int, len(joinRanges))
	for i, rg := range joinRanges {
		hsRanges[i] = [2]int{rg.Lo, rg.Hi}
	}
	peers := make([]string, 4)
	copy(peers, addrs)
	jtr, err := newWireTCP(parallex.TCPTransportConfig{
		Self:   3,
		Listen: "127.0.0.1:0",
		Peers:  peers,
		Ranges: hsRanges,
	})
	if err != nil {
		t.Fatal(err)
	}
	peers[3] = jtr.Addr().String()
	jtr.SetPeers(peers)
	joiner := parallex.New(parallex.Config{
		Transport:          jtr,
		NodeID:             3,
		NodeLocalities:     joinRanges,
		WorkersPerLocality: 2,
		Membership:         fastMembership,
		Register:           registerTestActions,
	})

	// Every incumbent must observe the machine growing to 8 localities.
	deadline := time.Now().Add(10 * time.Second)
	for _, rt := range rts {
		for rt.Localities() != 8 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d never saw the join: %d localities, members %+v",
					rt.NodeID(), rt.Localities(), rt.Members())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Calls into the joined localities complete, and the joiner calls out.
	jdata := joiner.NewDataAt(6, []float64{5, 6})
	if v, err := rts[0].CallFrom(0, jdata, "dist.sum", nil).Get(); err != nil || v.(float64) != 11 {
		t.Fatalf("incumbent -> joiner call: %v %v", v, err)
	}
	odata := rts[1].NewDataAt(2, []float64{7, 7, 7})
	if v, err := joiner.CallFrom(7, odata, "dist.sum", nil).Get(); err != nil || v.(float64) != 21 {
		t.Fatalf("joiner -> incumbent call: %v %v", v, err)
	}

	// Machine-wide quiescence works on the grown machine: the Mattern
	// waves validate against membership fingerprints, which converge even
	// though the joiner witnessed fewer membership events than the
	// incumbents.
	joiner.Wait()
	rts[0].Wait()

	joiner.Shutdown()
	for i, rt := range rts {
		rt.Shutdown()
		for _, err := range rt.Errors() {
			t.Errorf("node %d error: %v", i, err)
		}
	}
	if errs := joiner.Errors(); len(errs) != 0 {
		t.Errorf("joiner errors: %v", errs)
	}
	waitGoroutines(t, baseline)
}

// TestDistServeChaos kills a node under open-loop KV load: the serving
// tier must give every request a final verdict. Requests bound for the
// dying node's shards time out or fail with the node-lost verdict,
// retry, and — once the survivors adopt the dead node's localities and
// reinstall its shards — complete against the adopted shards. Zero
// requests may hang and zero may end without a verdict.
func TestDistServeChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rts, victim, _ := startMemberMachine(t, func(w *transport.Faulty) { w.KillAfter = 300 }, workloads.RegisterKVService)
	for _, rt := range rts {
		workloads.InstallKVShards(rt)
	}

	res := workloads.RunOpenLoop(rts[0], workloads.OpenLoopConfig{
		Rate:     2000,
		Requests: 800,
		Keys:     256,
		Seed:     7,
		SrcLoc:   0,
		Timeout:  150 * time.Millisecond,
		Retries:  40,
	})

	if victim.Silenced() == 0 {
		t.Fatal("the kill never armed: the run proved nothing")
	}
	awaitDead(t, rts[0], 2)
	if res.Lost != 0 {
		t.Fatalf("%d requests ended without any verdict: %+v", res.Lost, res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed with an unexpected error: %+v", res.Failed, res)
	}
	if res.Completed+res.Rejected != res.Issued {
		t.Fatalf("verdicts do not cover the run: %d completed + %d rejected != %d issued",
			res.Completed, res.Rejected, res.Issued)
	}
	// The crash must actually have perturbed the run — otherwise the
	// verdict-coverage assertion is vacuous.
	if res.Retried == 0 {
		t.Fatalf("no request was ever retried across the crash: %+v", res)
	}

	rts[0].Wait()
	rts[1].Wait()
	rts[2].Terminate()
	rts[0].Shutdown()
	rts[1].Shutdown()
	waitGoroutines(t, baseline)
}

// TestDistMembershipChaosSoak layers a kill AND a partition under serving
// load — the nightly chaos tier (set PX_SOAK=1). Reproducibility: every
// fault is counted, not timed, so a failure replays from the seed and
// counts printed below.
func TestDistMembershipChaosSoak(t *testing.T) {
	if os.Getenv("PX_SOAK") == "" {
		t.Skip("chaos soak: set PX_SOAK=1")
	}
	baseline := runtime.NumGoroutine()
	const seed = 4242
	// Partition heal is unsupported, so the victim suffers both faults:
	// node 2 is cut off from node 1 early, then crashes entirely. Node 0
	// bridges until the crash, after which the survivors converge.
	t.Logf("chaos soak seed %d: kill node 2 after 2500 frames, partition 1<->2 after 1200", seed)
	rts, victim, _ := startMemberMachine(t, func(w *transport.Faulty) { w.CutPeer, w.CutAfter, w.KillAfter = 1, 1200, 2500 }, workloads.RegisterKVService)
	for _, rt := range rts {
		workloads.InstallKVShards(rt)
	}

	res := workloads.RunOpenLoop(rts[0], workloads.OpenLoopConfig{
		Rate:     4000,
		Requests: 8000,
		Keys:     1024,
		Seed:     seed,
		SrcLoc:   0,
		Timeout:  200 * time.Millisecond,
		Retries:  60,
	})
	t.Logf("chaos soak result: %+v", struct {
		Issued, Completed, Rejected, Lost, Failed, Retried, NodeLost, TimedOut int
	}{res.Issued, res.Completed, res.Rejected, res.Lost, res.Failed, res.Retried, res.NodeLost, res.TimedOut})
	if victim.Silenced() == 0 {
		t.Fatal("the faults never armed: the soak proved nothing")
	}

	awaitDead(t, rts[0], 2)
	awaitDead(t, rts[1], 2)
	if res.Lost != 0 {
		t.Fatalf("soak lost %d requests (no verdict): %+v", res.Lost, res)
	}
	if res.Completed+res.Rejected != res.Issued {
		t.Fatalf("soak verdicts do not cover the run: %d + %d != %d", res.Completed, res.Rejected, res.Issued)
	}
	// The deaths re-homed localities: the survivors' view records moves.
	rehomed := false
	for _, i := range []int{0, 1} {
		if rts[i].Resident(4) && rts[i].Resident(5) {
			rehomed = true
		}
	}
	if !rehomed {
		t.Fatalf("no survivor adopted the dead node's localities: %+v / %+v", rts[0].Members(), rts[1].Members())
	}
	rts[0].Wait()
	rts[1].Wait()
	rts[2].Terminate()
	rts[0].Shutdown()
	rts[1].Shutdown()
	waitGoroutines(t, baseline)
}
