// Command pxmark is the repo's benchmark: four closed-loop workloads on an
// in-process ParalleX machine, six gated end-to-end metrics, and a layer
// budget measured from outside the program. See bench/README.md.
//
//	pxmark -workload kv-remote -seed 1 -seconds 24 -trace 0   one run, one JSON line (the driver's contract)
//	pxmark [-json]                                            the whole suite, both runs of every workload
//	pxmark -sets 2                                            the suite twice; exits nonzero if the sets disagree
//	pxmark -compare old.json new.json                         judge two -json outputs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// header records where and how a suite ran. Two outputs whose CPU counts
// differ measure different things and are never compared.
type header struct {
	Schema     string  `json:"schema"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	WarmS      float64 `json:"warm_s"`
	LatencyS   float64 `json:"latency_phase_s"`
	ThroughS   float64 `json:"throughput_phase_s"`
	TracedS    float64 `json:"traced_phase_s"`
	Setups     int     `json:"setups"`
}

// suiteDoc is the -json output: for every workload its two reports (end to
// end, per layer), whose Samples carry the per-percentile sample counts.
type suiteDoc struct {
	Header    header               `json:"header"`
	Workloads map[string][]*report `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pxmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print the driver's result line (empty: the whole suite)")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 24, "measured seconds per run, split equally over its phases")
	traced := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer ones")
	sets := fs.Int("sets", 1, "run the suite this many times in fresh machines and compare the sets")
	asJSON := fs.Bool("json", false, "suite: print one JSON document on stdout")
	compare := fs.Bool("compare", false, "compare two -json outputs given as arguments")
	warm := fs.Duration("warm", 2*time.Second, "warm-up before the measured phases (discarded)")
	setups := fs.Int("setups", 15, "machine bring-ups per end-to-end run; setup_s is their median")
	window := fs.Int("window", 0, "override the workload's window; beyond 32 this is the wedge test hook")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and the machine's socket files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareDocs(fs.Args(), stdout, stderr)
	}
	if *seconds <= 0 || *sets < 1 || *setups < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "pxmark: -seconds must be positive, -sets and -setups at least 1, -trace 0 or 1")
		return 2
	}

	// The same-host fabric binds its Unix sockets under TMPDIR. Keep them
	// inside the output directory so nothing is written elsewhere and a
	// forced exit can sweep them.
	tmp := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "pxmark:", err)
		return 1
	}
	if old, had := os.LookupEnv("TMPDIR"); had {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", tmp)
	defer os.RemoveAll(tmp)

	o := options{seed: *seed, seconds: *seconds, warm: *warm, setups: *setups, window: *window, outDir: *outDir}
	o.onWedge = func(rep *report) {
		printTable(stderr, rep)
		buf, _ := json.Marshal(rep)
		fmt.Fprintf(stderr, "pxmark: WEDGED %s\n", buf)
		pprof.Lookup("goroutine").WriteTo(stderr, 1) // who is stuck where, identical stacks grouped
		os.RemoveAll(tmp)
		os.Exit(3) // the stuck goroutines cannot be joined; leaving is the only way out
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "pxmark: unknown workload %q\n", *name)
			return 2
		}
		rep, err := runWorkload(w, o, *traced == 1)
		if err != nil {
			fmt.Fprintln(stderr, "pxmark:", err)
			return 1
		}
		printTable(stderr, rep)
		fmt.Fprintln(stdout, resultLine(rep))
		return 0
	}

	var docs []*suiteDoc
	for set := 0; set < *sets; set++ {
		doc := &suiteDoc{Header: newHeader(o), Workloads: make(map[string][]*report)}
		for _, w := range allWorkloads() {
			for _, tr := range []bool{false, true} {
				rep, err := runWorkload(w, o, tr)
				if err != nil {
					fmt.Fprintln(stderr, "pxmark:", err)
					return 1
				}
				printTable(stderr, rep)
				doc.Workloads[w.name] = append(doc.Workloads[w.name], rep)
			}
		}
		docs = append(docs, doc)
	}
	code := 0
	for _, doc := range docs {
		for _, reps := range doc.Workloads {
			for _, rep := range reps {
				if !rep.Correct {
					code = 1
				}
			}
		}
	}
	if *sets > 1 && !setsAgree(docs, stderr) {
		code = 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		var out any = docs[0]
		if *sets > 1 {
			out = docs
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "pxmark:", err)
			return 1
		}
	}
	return code
}

func newHeader(o options) header {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return header{
		Schema: "pxmark/v1", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: strings.TrimSpace(string(kernel)), Commit: gitCommit(),
		Seed: o.seed, Seconds: o.seconds, WarmS: o.warm.Seconds(),
		LatencyS: o.seconds / 2, ThroughS: o.seconds / 2, TracedS: o.seconds / 4, Setups: o.setups,
	}
}

// gitCommit reads the checked-out commit from the nearest .git directory,
// without running git; outside a repository it is "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		if head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD")); err == nil {
			s := strings.TrimSpace(string(head))
			ref, isRef := strings.CutPrefix(s, "ref: ")
			if !isRef {
				return s
			}
			if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
				return strings.TrimSpace(string(sha))
			}
			return ref // packed ref: name the branch rather than parse the pack file
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// specsFor returns the metric set a report carries.
func specsFor(rep *report) []metricSpec {
	if rep.Trace {
		return perLayer
	}
	return endToEnd
}

// resultLine renders the driver's one-line result: exactly the keys
// correct, attempted, failed and metrics, every value with all its digits.
func resultLine(rep *report) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]val)}
	for _, s := range specsFor(rep) {
		out.Metrics[s.name] = val{rep.Metrics[s.name], s.unit}
	}
	buf, _ := json.Marshal(out) // plain numbers and strings cannot fail to marshal
	return string(buf)
}

// printTable writes the human view of one report: every metric by name
// with its unit, sample counts beside the percentiles, then what went
// wrong, if anything.
func printTable(w io.Writer, rep *report) {
	kind := "end-to-end"
	if rep.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s)  correct=%v attempted=%d failed=%d\n", rep.Workload, kind, rep.Correct, rep.Attempted, rep.Failed)
	for _, s := range specsFor(rep) {
		v, ok := rep.Metrics[s.name]
		if !ok {
			continue // a wedged run prints what it has
		}
		line := fmt.Sprintf("  %-32s %14.4f %-6s", s.name, v, s.unit)
		if n, ok := rep.Samples[s.name]; ok {
			line += fmt.Sprintf(" samples=%d", n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	for _, f := range rep.Findings {
		fmt.Fprintln(w, "  FINDING:", f)
	}
}

// worse reports by what share of a, b is worse than a in the metric's
// direction (negative when b is better).
func worse(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// setsAgree prints, per workload and end-to-end metric, the median over the
// sets, their relative spread and the bound, and reports whether every
// spread stayed inside its bound.
func setsAgree(docs []*suiteDoc, w io.Writer) bool {
	agree := true
	fmt.Fprintf(w, "== %d sets: median, spread (max-min over median), bound\n", len(docs))
	for _, wl := range allWorkloads() {
		for _, s := range endToEnd {
			var vals []float64
			for _, d := range docs {
				vals = append(vals, d.Workloads[wl.name][0].Metrics[s.name])
			}
			med := median(vals)
			spread := share(slices.Max(vals)-slices.Min(vals), med)
			verdict := "ok"
			// setup_s is the median of a few tens of milliseconds; only its
			// drift between whole batches of runs is gated, by the driver.
			if spread > s.bound && s.name != "setup_s" {
				verdict, agree = "DISAGREE", false
			}
			fmt.Fprintf(w, "  %-14s %-14s %14.4f %-4s spread %6.2f%% bound %5.1f%% %s\n",
				wl.name, s.name, med, s.unit, spread*100, s.bound*100, verdict)
		}
	}
	return agree
}

// compareDocs judges new against old, metric by metric, with the bounds.
func compareDocs(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "pxmark: -compare needs two files: old.json new.json")
		return 2
	}
	var docs [2]suiteDoc
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(buf, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "pxmark: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := docs[0].Header, docs[1].Header
	if a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(stderr, "pxmark: refusing to compare: %s ran on %d CPUs (GOMAXPROCS %d), %s on %d (GOMAXPROCS %d)\n",
			paths[0], a.NProc, a.GOMAXPROCS, paths[1], b.NProc, b.GOMAXPROCS)
		return 2
	}
	code := 0
	for _, wl := range allWorkloads() {
		old, new := docs[0].Workloads[wl.name], docs[1].Workloads[wl.name]
		if len(old) == 0 || len(new) == 0 {
			fmt.Fprintf(stderr, "pxmark: workload %s missing from one side\n", wl.name)
			return 2
		}
		for _, s := range endToEnd {
			d := worse(s, old[0].Metrics[s.name], new[0].Metrics[s.name])
			verdict := "ok"
			if d > s.bound {
				verdict, code = "REGRESSION", 1
			}
			fmt.Fprintf(stdout, "%-14s %-14s %14.4f -> %14.4f %-4s %+7.2f%% worse (bound %4.1f%%) %s\n",
				wl.name, s.name, old[0].Metrics[s.name], new[0].Metrics[s.name], s.unit, d*100, s.bound*100, verdict)
		}
	}
	return code
}
