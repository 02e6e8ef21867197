// Command pxload is the open-loop load generator for the serving tier.
// It joins a running multi-process ParalleX machine as one of its nodes
// (the same -peers/-localities roster every pxnode was started with),
// installs its own resident KV shards, and then fires get/put requests at
// a fixed arrival rate against the machine-wide shard table — request i
// departs at start + i/rate no matter how many earlier requests are still
// in flight, the way real clients keep arriving at an overloaded service.
//
// Latency is charged from each request's scheduled arrival, not its
// actual dispatch, so queueing delay cannot hide behind a stalled
// generator (the coordinated-omission correction; see EXPERIMENTS.md,
// "Open-loop latency methodology"). Requests shed by admission control
// (pxnode -admit) come back as typed overload verdicts and are retried
// with exponential backoff; a request whose budget ends in a shed verdict
// counts as rejected, one that ends with no verdict at all counts as
// lost.
//
// The run's summary — throughput, p50/p99/p999 latency, and the
// shed/retry/lost counters — prints to stdout and, with -out, is written
// as one JSON line in the shape bench/pxmark reports:
// {"correct","attempted","failed","metrics":{name:{"value","unit"}}}.
//
// Drive a two-node machine, one serving node and one generator:
//
//	pxnode -node 0 -peers 127.0.0.1:9400,127.0.0.1:9401 -localities 2,2 -workload serve -admit 256 &
//	pxload -node 1 -peers 127.0.0.1:9400,127.0.0.1:9401 -localities 2,2 -rate 20000 -n 100000 -out serve.jsonl
//
// When pxload finishes it broadcasts the machine halt, so serve-mode
// pxnodes drain and exit on their own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	parallex "repro"
	"repro/internal/pprofserve"
	"repro/internal/workloads"
)

func main() {
	node := flag.Int("node", 0, "this process's node ID in the machine roster")
	peers := flag.String("peers", "", "comma-separated host:port of every node, in node order")
	locs := flag.String("localities", "", "locality count per node in node order, e.g. 2,2,2 = nodes hosting [0,2) [2,4) [4,6)")
	listen := flag.String("listen", "", "listen address (default: the -peers entry for this node)")
	workers := flag.Int("workers", 4, "workers per locality")
	lanes := flag.Int("lanes", 0, "TCP connections per peer pair, matching the serving nodes' -lanes (0 = single lane)")
	rate := flag.Float64("rate", 1000, "arrival rate in requests per second")
	n := flag.Int("n", 1000, "total requests to schedule")
	keys := flag.Int("keys", 1024, "key-space size (keys drawn uniformly)")
	putFrac := flag.Float64("putfrac", 0.1, "fraction of arrivals that are puts; the rest are gets")
	valueBytes := flag.Int("valuebytes", 64, "payload size of each put, in bytes")
	seed := flag.Uint64("seed", 1, "seed for the key/op sequence")
	timeout := flag.Duration("timeout", 2*time.Second, "per-attempt wait for a verdict before re-issuing")
	retries := flag.Int("retries", 8, "re-issues of a shed or timed-out request before it counts as rejected/lost")
	backoff := flag.Duration("backoff", time.Millisecond, "delay before the first re-issue, doubling per attempt")
	out := flag.String("out", "", "write the run as one JSON result line to this path; empty = stdout summary only")
	halt := flag.Bool("halt", true, "broadcast the machine halt when the run finishes")
	metricsAddr := flag.String("metrics", "", "serve the px.* metrics registry as JSON on this address; empty = off")
	flag.Parse()

	peerList := strings.Split(*peers, ",")
	if *peers == "" || len(peerList) < 2 {
		log.Fatal("pxload: -peers needs at least two comma-separated addresses")
	}
	ranges, err := parseLocalities(*locs, len(peerList))
	if err != nil {
		log.Fatalf("pxload: %v", err)
	}
	if *node < 0 || *node >= len(peerList) {
		log.Fatalf("pxload: -node %d outside machine [0,%d)", *node, len(peerList))
	}
	addr := *listen
	if addr == "" {
		addr = peerList[*node]
	}

	hsRanges := make([][2]int, len(ranges))
	for i, rg := range ranges {
		hsRanges[i] = [2]int{rg.Lo, rg.Hi}
	}
	tr, err := parallex.NewTCPTransport(parallex.TCPTransportConfig{
		Self:   *node,
		Listen: addr,
		Peers:  peerList,
		Ranges: hsRanges,
		Lanes:  *lanes,
	})
	if err != nil {
		log.Fatalf("pxload: %v", err)
	}

	rt := parallex.New(parallex.Config{
		Transport:          tr,
		NodeID:             *node,
		NodeLocalities:     ranges,
		WorkersPerLocality: *workers,
		Register:           workloads.RegisterKVService,
	})
	workloads.InstallKVShards(rt)
	if _, err := pprofserve.ServeMetrics(*metricsAddr, rt.Metrics(), rt.Spans(), log.Printf); err != nil {
		log.Fatalf("pxload: %v", err)
	}
	home := ranges[*node].Lo
	fmt.Printf("pxload: node %d up, driving from locality %d of %d at %.0f req/s\n",
		*node, home, rt.Localities(), *rate)

	res := workloads.RunOpenLoop(rt, workloads.OpenLoopConfig{
		Rate:         *rate,
		Requests:     *n,
		Keys:         *keys,
		PutFraction:  *putFrac,
		ValueBytes:   *valueBytes,
		Seed:         *seed,
		SrcLoc:       home,
		Timeout:      *timeout,
		Retries:      *retries,
		RetryBackoff: *backoff,
	})

	p50, p99, p999 := res.Percentiles()
	fmt.Printf("pxload: %d issued in %v: %d completed, %d rejected, %d lost, %d failed\n",
		res.Issued, res.Elapsed.Round(time.Millisecond), res.Completed, res.Rejected, res.Lost, res.Failed)
	fmt.Printf("pxload: %d shed verdicts, %d retries, %d attempt timeouts\n",
		res.Shed, res.Retried, res.TimedOut)
	if res.Completed > 0 {
		fmt.Printf("pxload: latency p50 %v  p99 %v  p999 %v (from scheduled arrival)\n",
			time.Duration(p50), time.Duration(p99), time.Duration(p999))
	}
	if *out != "" {
		if err := os.WriteFile(*out, resultLine(res), 0o644); err != nil {
			log.Fatalf("pxload: write %s: %v", *out, err)
		}
		fmt.Printf("pxload: wrote result line to %s\n", *out)
	}

	if *halt {
		rt.RequestHalt()
	}
	rt.Shutdown()
	if res.Lost > 0 || res.Failed > 0 {
		log.Fatalf("pxload: %d lost and %d failed requests", res.Lost, res.Failed)
	}
}

// resultLine renders the run as one JSON line in pxmark's result shape.
// correct means no request was lost or failed; failed counts every
// request that ended without a value.
func resultLine(res *workloads.OpenLoopResult) []byte {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	p50, p99, p999 := res.Percentiles()
	var opsPerS float64
	if sec := res.Elapsed.Seconds(); sec > 0 {
		opsPerS = float64(res.Completed) / sec
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{
		Correct:   res.Lost == 0 && res.Failed == 0,
		Attempted: res.Issued,
		Failed:    res.Issued - res.Completed,
		Metrics: map[string]val{
			"ops_per_s": {opsPerS, "1/s"},
			"p50_us":    {p50 / 1e3, "us"},
			"p99_us":    {p99 / 1e3, "us"},
			"p999_us":   {p999 / 1e3, "us"},
			"shed":      {float64(res.Shed), "count"},
			"retried":   {float64(res.Retried), "count"},
			"rejected":  {float64(res.Rejected), "count"},
			"lost":      {float64(res.Lost), "count"},
		},
	}
	buf, _ := json.Marshal(line) // plain numbers and strings cannot fail to marshal
	return append(buf, '\n')
}

// parseLocalities turns "2,2,2" into contiguous per-node ranges.
func parseLocalities(spec string, nodes int) ([]parallex.LocalityRange, error) {
	if spec == "" {
		return nil, fmt.Errorf("-localities is required (e.g. 2,2,2)")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != nodes {
		return nil, fmt.Errorf("-localities has %d entries for %d nodes", len(parts), nodes)
	}
	ranges := make([]parallex.LocalityRange, len(parts))
	lo := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad locality count %q", p)
		}
		ranges[i] = parallex.LocalityRange{Lo: lo, Hi: lo + n}
		lo += n
	}
	return ranges, nil
}
