package main

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/workloads"
)

// The -out line has exactly pxmark's keys; failed counts every request
// without a value, and correct fails on a lost request but not on a
// rejected one.
func TestResultLineShape(t *testing.T) {
	res := &workloads.OpenLoopResult{
		Issued: 10, Completed: 7, Rejected: 2, Lost: 1, Shed: 5, Retried: 6,
		LatenciesNs: []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000},
		Elapsed:     time.Second,
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	buf := resultLine(res)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &line); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || line.Correct || line.Attempted != 10 || line.Failed != 3 {
		t.Fatalf("line = %s", buf)
	}
	for name, want := range map[string]float64{
		"ops_per_s": 7, "p50_us": 4, "p99_us": 6.94, "p999_us": 6.994,
		"shed": 5, "retried": 6, "rejected": 2, "lost": 1,
	} {
		if got := line.Metrics[name].Value; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(line.Metrics) != 8 {
		t.Errorf("%d metrics, want 8: %s", len(line.Metrics), buf)
	}

	res.Lost = 0
	if err := json.Unmarshal(resultLine(res), &line); err != nil || !line.Correct {
		t.Fatalf("a run with only rejected requests reads correct=%v (%v)", line.Correct, err)
	}
}
