package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload through both runs at 150 ms phases the way
// the driver does, and checks the exit path is clean (no failed op, no
// violated invariant, no leaked goroutine — all of which clear Correct),
// that exactly the declared metric names come out, each once and with its
// unit, and that no socket file is left behind.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range allWorkloads() {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seconds", "0.3", "-warm", "30ms",
				"-setups", "2", "-seed", "7", "-out", out, "-trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: result line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace %d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				got, ok := res.Metrics[s.name]
				if !ok || got.Value == nil || got.Unit != s.unit {
					t.Errorf("%s trace %d: metric %s missing or without unit %q: %+v", w.name, trace, s.name, s.unit, got)
				}
				if n := strings.Count(stderr.String(), "\n  "+s.name+" "); n != 1 {
					t.Errorf("%s trace %d: %s printed %d times in the table", w.name, trace, s.name, n)
				}
			}
			if trace == 0 {
				for _, s := range specs {
					if *res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, s.name, *res.Metrics[s.name].Value)
					}
				}
			} else if w.name == "kv-local" {
				// The bypass really bypasses.
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "transport.") && !strings.HasSuffix(name, "_us") && *m.Value != 0 {
						t.Errorf("kv-local: %s = %v, want 0 on a machine without a transport", name, *m.Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) != 0 {
		t.Errorf("socket files left behind: %v", left)
	}
}

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and the code from
// drifting: same workloads, same metric names, units, directions and
// bounds, every name well formed and used once.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	seen := make(map[string]bool)
	once := func(name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("name %q is not well formed", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	code := allWorkloads()
	if len(doc.Workloads) != len(code) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(code))
	}
	for i, w := range doc.Workloads {
		once(w.Name)
		if w.Name != code[i].name || w.Why != code[i].why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in code", i, w.Name, w.Why, code[i].name, code[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, g := range got {
			once(g.Name)
			s := want[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s[%d]: %+v in BENCHMARK.json, %+v in code", kind, i, g, s)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != s.bound) {
				t.Errorf("%s[%d] %s: bound %v in BENCHMARK.json, %v in code", kind, i, g.Name, g.Bound, s.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestCompareRefusesDifferentCPUs pins the mistake BENCH_baseline.json
// bakes in: numbers taken on different CPU counts are not comparable.
func TestCompareRefusesDifferentCPUs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		doc := suiteDoc{Header: header{NProc: nproc, GOMAXPROCS: nproc}, Workloads: map[string][]*report{}}
		for _, w := range allWorkloads() {
			rep := &report{Workload: w.name, Metrics: map[string]float64{}}
			for _, s := range endToEnd {
				rep.Metrics[s.name] = 100
			}
			doc.Workloads[w.name] = []*report{rep}
		}
		buf, _ := json.Marshal(doc)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one, two, twoAgain := write("one.json", 1), write("two.json", 2), write("again.json", 2)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", one, two}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "refusing") {
		t.Errorf("1 CPU vs 2 CPUs: exit %d, stderr %q; want a refusal", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-compare", two, twoAgain}, &stdout, &stderr); code != 0 {
		t.Errorf("equal documents: exit %d, stderr %q", code, stderr.String())
	}
}
