package parallex_test

// Observability over a real multi-node machine: three TCP nodes on
// loopback run cross-node work while the operator endpoints serve metrics
// and sampled trace spans. The tests assert the two tentpole contracts
// end to end — HTTP-served metric values match the runtime's own
// counters, and one sampled trace ID stitches post, wire, and trigger
// hops across node boundaries — plus the mixed-capability downgrade and
// the soak-with-faults counters CI gates on.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	parallex "repro"
	"repro/internal/pprofserve"
	"repro/internal/trace"
	"repro/internal/transport"
)

// startObsMachine mirrors startTCPMachine but lets the caller adjust each
// node's Config before New — the observability knobs (TraceSampleRate)
// are per-node.
func startObsMachine(t testing.TB, configure func(node int, cfg *parallex.Config)) []*parallex.Runtime {
	t.Helper()
	ranges := make([][2]int, len(distRanges))
	for i, rg := range distRanges {
		ranges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tcps := make([]*transport.TCP, 3)
	addrs := make([]string, 3)
	for i := range tcps {
		tr, err := newWireTCP(parallex.TCPTransportConfig{
			Self:   i,
			Listen: "127.0.0.1:0",
			Peers:  make([]string, 3),
			Ranges: ranges,
		})
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
		tcps[i] = tr
		addrs[i] = tr.Addr().String()
	}
	rts := make([]*parallex.Runtime, 3)
	for i, tr := range tcps {
		tr.SetPeers(addrs)
		cfg := parallex.Config{
			Transport:          tr,
			NodeID:             i,
			NodeLocalities:     distRanges,
			WorkersPerLocality: 2,
		}
		if configure != nil {
			configure(i, &cfg)
		}
		rts[i] = parallex.New(cfg)
	}
	return rts
}

// getJSON fetches one operator endpoint and decodes its JSON body.
func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// spanRow mirrors the /trace JSON wire form.
type spanRow struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Kind   string `json:"kind"`
	Node   int32  `json:"node"`
	Loc    int32  `json:"loc"`
	Action string `json:"action"`
}

// TestDistObservabilityTCP is the tentpole acceptance scenario: a 3-node
// TCP machine runs cross-node calls with full sampling, and node 0's
// operator endpoint must (a) serve metric values that match the runtime's
// own counters and (b) serve sampled spans in which one trace ID covers
// the post on node 0, the wire hops on both sides, and the continuation's
// LCO trigger — proof the trace context survived the wire trailer. Only
// node 0 samples: its peers record the hops of its traces all the same,
// because the decision travels with the parcel.
func TestDistObservabilityTCP(t *testing.T) {
	// No goroutine-baseline check here: ServeMetrics intentionally serves
	// for the life of the process.
	defer http.DefaultClient.CloseIdleConnections()
	rts := startObsMachine(t, func(node int, cfg *parallex.Config) {
		if node == 0 {
			cfg.TraceSampleRate = 1
		}
	})
	obj := rts[1].NewDataAt(2, int64(7)) // first locality of node 1
	for i := 0; i < 10; i++ {
		if _, err := rts[0].CallFrom(0, obj, parallex.ActionNop, nil).Get(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	rts[0].Wait()

	addr, err := pprofserve.ServeMetrics("127.0.0.1:0", rts[0].Metrics(), rts[0].Spans(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Served metrics equal the runtime's counters (the machine is
	// quiescent, so the two reads must agree exactly).
	var served map[string]float64
	getJSON(t, "http://"+addr+"/metrics", &served)
	local := rts[0].Metrics().Snapshot()
	for _, key := range []string{
		"px.parcels.sent", "px.wire.sent", "px.wire.recv",
		"px.threads.spawned", "px.trace.sampled", "px.trace.spans",
	} {
		if served[key] != local[key] {
			t.Errorf("%s: endpoint %v, runtime %v", key, served[key], local[key])
		}
		if served[key] == 0 {
			t.Errorf("%s stayed 0 after 10 cross-node calls", key)
		}
	}

	// (b) One trace ID spans post -> wire.send on node 0, wire.recv on
	// node 1, and the continuation trigger hop. Spans live where they were
	// recorded, so the cross-node view merges all three buffers.
	type hop struct {
		kind trace.SpanKind
		node int32
	}
	byTrace := map[uint64]map[hop]bool{}
	for _, rt := range rts {
		for _, sp := range rt.Spans().Snapshot() {
			if sp.Trace == 0 {
				continue
			}
			if byTrace[sp.Trace] == nil {
				byTrace[sp.Trace] = map[hop]bool{}
			}
			byTrace[sp.Trace][hop{sp.Kind, sp.Node}] = true
		}
	}
	var crossTrace uint64
	for id, hops := range byTrace {
		if hops[hop{trace.SpanPost, 0}] && hops[hop{trace.SpanWireSend, 0}] &&
			hops[hop{trace.SpanWireRecv, 1}] && hops[hop{trace.SpanTrigger, 0}] {
			crossTrace = id
			break
		}
	}
	if crossTrace == 0 {
		t.Fatalf("no trace ID covers post/wire.send@0 + wire.recv@1 + trigger@0 across %d traces", len(byTrace))
	}

	// The same trace is retrievable over HTTP from node 0, with its local
	// hops rendered as greppable hex.
	var rows []spanRow
	getJSON(t, "http://"+addr+"/trace", &rows)
	want := fmt.Sprintf("%016x", crossTrace)
	kinds := map[string]bool{}
	for _, row := range rows {
		if row.Trace == want {
			kinds[row.Kind] = true
		}
	}
	if !kinds["post"] || !kinds["wire.send"] {
		t.Fatalf("served trace %s lacks node 0's hops: %v", want, kinds)
	}

	stopMachine(t, rts, true)
}

// TestMetricsEndpointSoak is the CI multinode assertion: under a work
// storm, every node's metrics endpoint must show its wire traffic and the
// scheduler's activity (steals) as nonzero counters.
func TestMetricsEndpointSoak(t *testing.T) {
	rts := startObsMachine(t, nil)
	const perNode = 12
	for it := 0; it < 3; it++ {
		owner := it % 3
		ownerLoc := rts[owner].NodeRange(owner).Lo
		gate := rts[owner].NewDistGateAt(ownerLoc, 3*perNode)
		waits := make([]*parallex.Future, 3)
		for node := 0; node < 3; node++ {
			waits[node] = rts[node].WaitLCO(rts[node].NodeRange(node).Lo, gate)
		}
		done := make(chan struct{}, 3)
		for node := 0; node < 3; node++ {
			go func(node int) {
				rg := rts[node].NodeRange(node)
				for i := 0; i < perNode; i++ {
					rts[node].SignalLCO(rg.Lo+i%rg.Count(), gate)
				}
				done <- struct{}{}
			}(node)
		}
		for i := 0; i < 3; i++ {
			<-done
		}
		for node := 0; node < 3; node++ {
			if _, err := waits[node].Get(); err != nil {
				t.Fatalf("iter %d node %d: %v", it, node, err)
			}
		}
		rts[0].Wait()
	}
	// A burst of same-destination posts all lands on one worker's deque
	// (destination-affine placement), so the sibling worker must steal.
	obj := rts[0].NewDataAt(0, int64(1))
	for i := 0; i < 400; i++ {
		rts[0].SendFrom(0, parallex.NewParcel(obj, parallex.ActionNop, nil))
	}
	rts[0].Wait()

	var steals float64
	for i, rt := range rts {
		addr, err := pprofserve.ServeMetrics("127.0.0.1:0", rt.Metrics(), rt.Spans(), t.Logf)
		if err != nil {
			t.Fatalf("node %d endpoint: %v", i, err)
		}
		var m map[string]float64
		getJSON(t, "http://"+addr+"/metrics", &m)
		steals += m["px.sched.steals"] + m["px.sched.steals_local"]
		// Every node signals gates other nodes own: its triggers are its
		// wire traffic.
		if m["px.wire.sent"] == 0 {
			t.Errorf("node %d endpoint reports no wire traffic", i)
		}
	}
	if steals == 0 {
		t.Error("endpoints report zero steals after a same-destination burst")
	}
	stopMachine(t, rts, true)
}
