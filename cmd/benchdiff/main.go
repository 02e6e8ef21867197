// Command benchdiff turns `go test -bench` output into the repo's
// machine-readable BENCH_<date>.json record and gates CI on it: it fails
// (exit 1) when any benchmark regresses more than -threshold against a
// committed baseline suite, or when a required speedup ratio between two
// benchmarks in the current run is not met.
//
// Typical CI use:
//
//	go test -bench . -benchmem -benchtime 200ms -count 3 -run '^$' | tee bench.txt
//	go run ./cmd/benchdiff -parse bench.txt -out BENCH_$(date -u +%F).json \
//	    -baseline BENCH_baseline.json -threshold 0.25 \
//	    -speedup base=SchedPostDispatchMutex,opt=SchedPostDispatchDeques,min=2 \
//	    -allocdrop SchedParcelFlood=0.5,SchedParcelPingPong=0.5 \
//	    -require WireShardedFanout,WireSameHost
//
// -speedup is repeatable; each instance is an independent in-run gate.
// -require fails the run when a named benchmark is absent from it (or
// from the baseline, when one is given): a misspelled -bench regex or a
// silently skipped benchmark otherwise passes every gate vacuously.
//
// Absolute ns/op baselines are machine-class dependent: refresh
// BENCH_baseline.json (commit the -out file) whenever the CI runner class
// changes. The -speedup gate compares two benchmarks from the same run, so
// it is machine-independent — and so is -allocdrop: allocs/op is a
// deterministic property of the code, so the allocation gates hold across
// machine classes where the ns/op check would be noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchio"
)

func main() {
	parse := flag.String("parse", "", "go test -bench output file to parse ('-' for stdin)")
	out := flag.String("out", "", "write the parsed suite as BENCH json to this path")
	baseline := flag.String("baseline", "", "baseline BENCH json to compare against")
	threshold := flag.Float64("threshold", 0.25, "allowed ns/op regression fraction vs baseline")
	var speedups multiFlag
	flag.Var(&speedups, "speedup", "required ratio, e.g. base=NameA,opt=NameB,min=2: ns/op(A) >= min*ns/op(B); repeatable")
	allocdrop := flag.String("allocdrop", "", "required allocs/op drops vs baseline, e.g. NameA=0.5,NameB=0.5: allocs(NameA) <= 0.5*baseline")
	require := flag.String("require", "", "comma-separated benchmark names that must be present in this run (and in -baseline when given)")
	flag.Parse()

	if *parse == "" {
		fatal("benchdiff: -parse is required")
	}
	in := os.Stdin
	if *parse != "-" {
		f, err := os.Open(*parse)
		if err != nil {
			fatal("benchdiff: %v", err)
		}
		defer f.Close()
		in = f
	}
	suite, err := benchio.ParseGoBench(in)
	if err != nil {
		fatal("benchdiff: parse: %v", err)
	}
	if len(suite.Benchmarks) == 0 {
		fatal("benchdiff: no benchmark lines found in %s", *parse)
	}
	fmt.Printf("benchdiff: parsed %d benchmarks (%s, %d cpus)\n",
		len(suite.Benchmarks), suite.GoVersion, suite.CPUs)

	if *out != "" {
		if err := suite.WriteFile(*out); err != nil {
			fatal("benchdiff: write %s: %v", *out, err)
		}
		fmt.Printf("benchdiff: wrote %s\n", *out)
	}

	failed := false
	if *baseline != "" {
		base, err := benchio.ReadFile(*baseline)
		if err != nil {
			fatal("benchdiff: baseline: %v", err)
		}
		regs, missing := benchio.Compare(base, suite, *threshold)
		// A benchmark that vanished from the run is a gate failure on any
		// machine: it means a rename or a silent drop, and the baseline
		// must be refreshed deliberately.
		for _, name := range missing {
			fmt.Printf("benchdiff: MISSING %s is in %s but not in this run\n", name, *baseline)
			failed = true
		}
		switch {
		case !benchio.SameMachineClass(base, suite):
			// Absolute ns/op across machine classes is noise; the
			// machine-independent -speedup gate below still applies.
			fmt.Printf("benchdiff: baseline %s is from a different machine class (%s/%d cpus vs %s/%d cpus); "+
				"absolute regression check skipped — refresh BENCH_baseline.json from this run's artifact\n",
				*baseline, base.GoVersion, base.CPUs, suite.GoVersion, suite.CPUs)
		case len(regs) > 0:
			for _, r := range regs {
				fmt.Printf("benchdiff: REGRESSION %-36s %10.1f -> %10.1f ns/op (%.2fx, limit %.2fx)\n",
					r.Name, r.Baseline, r.Current, r.Ratio, 1+*threshold)
				failed = true
			}
		default:
			fmt.Printf("benchdiff: no regressions beyond %+.0f%% vs %s\n", *threshold*100, *baseline)
		}
		// Tail-latency gate: p99 is wall-clock like ns/op, so it rides the
		// same machine-class guard and the same -threshold fraction.
		if benchio.SameMachineClass(base, suite) {
			if lregs := benchio.CompareLatency(base, suite, *threshold); len(lregs) > 0 {
				for _, r := range lregs {
					fmt.Printf("benchdiff: LATENCY REGRESSION %-28s %10.1f -> %10.1f p99-ns (%.2fx, limit %.2fx)\n",
						r.Name, r.Baseline, r.Current, r.Ratio, 1+*threshold)
					failed = true
				}
			} else {
				fmt.Printf("benchdiff: no p99 latency regressions beyond %+.0f%% vs %s\n", *threshold*100, *baseline)
			}
		}
	}

	if *require != "" {
		// Presence gate: a new benchmark CI depends on must actually run —
		// a misspelled -bench regex or a silently skipped benchmark
		// otherwise passes every other gate vacuously. When a baseline is
		// given the name must appear there too, forcing the deliberate
		// baseline refresh that admits the benchmark to the absolute
		// regression check.
		var base *benchio.Suite
		if *baseline != "" {
			b, err := benchio.ReadFile(*baseline)
			if err != nil {
				fatal("benchdiff: baseline: %v", err)
			}
			base = b
		}
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := suite.Find(name); !ok {
				fmt.Printf("benchdiff: REQUIRED %s missing from this run\n", name)
				failed = true
			}
			if base != nil {
				if _, ok := base.Find(name); !ok {
					fmt.Printf("benchdiff: REQUIRED %s missing from %s — refresh the baseline\n", name, *baseline)
					failed = true
				}
			}
		}
	}

	for _, spec := range speedups {
		baseName, optName, min, err := parseSpeedup(spec)
		if err != nil {
			fatal("benchdiff: %v", err)
		}
		b, okB := suite.Find(baseName)
		o, okO := suite.Find(optName)
		switch {
		case !okB || !okO:
			fmt.Printf("benchdiff: SPEEDUP GATE missing benchmarks %q/%q in this run\n", baseName, optName)
			failed = true
		case o.NsPerOp <= 0 || b.NsPerOp/o.NsPerOp < min:
			fmt.Printf("benchdiff: SPEEDUP GATE %s/%s = %.2fx, want >= %.2fx\n",
				baseName, optName, b.NsPerOp/o.NsPerOp, min)
			failed = true
		default:
			fmt.Printf("benchdiff: speedup %s/%s = %.2fx (>= %.2fx ok)\n",
				baseName, optName, b.NsPerOp/o.NsPerOp, min)
		}
	}

	if *allocdrop != "" {
		if *baseline == "" {
			fatal("benchdiff: -allocdrop needs -baseline")
		}
		base, err := benchio.ReadFile(*baseline)
		if err != nil {
			fatal("benchdiff: baseline: %v", err)
		}
		gates, err := parseAllocDrop(*allocdrop)
		if err != nil {
			fatal("benchdiff: %v", err)
		}
		for _, gate := range gates {
			b, okB := base.Find(gate.name)
			cur, okC := suite.Find(gate.name)
			switch {
			case !okB:
				fmt.Printf("benchdiff: ALLOC GATE %s missing from %s — refresh the baseline\n",
					gate.name, *baseline)
				failed = true
			case !okC:
				fmt.Printf("benchdiff: ALLOC GATE %s missing from this run\n", gate.name)
				failed = true
			case !cur.AllocsMeasured:
				// 0-because-unmeasured must not pass as 0-allocations.
				fmt.Printf("benchdiff: ALLOC GATE %s has no allocs/op in this run — is -benchmem missing?\n",
					gate.name)
				failed = true
			case b.AllocsPerOp <= 0:
				// A zero-alloc baseline (the JSON omits the field for 0 —
				// indistinguishable from an un-measured one) tightens the
				// gate to its fixed point: the current run must also be
				// allocation-free. This keeps "refresh the baseline from
				// the CI artifact" safe after the pooled path hits zero.
				if cur.AllocsPerOp > 0 {
					fmt.Printf("benchdiff: ALLOC GATE %-28s baseline is 0 allocs/op, this run has %.1f\n",
						gate.name, cur.AllocsPerOp)
					failed = true
				} else {
					fmt.Printf("benchdiff: alloc drop %-28s 0 allocs/op held\n", gate.name)
				}
			case cur.AllocsPerOp > gate.frac*b.AllocsPerOp:
				fmt.Printf("benchdiff: ALLOC GATE %-28s %6.1f -> %6.1f allocs/op, want <= %.1f (%.0f%% of baseline)\n",
					gate.name, b.AllocsPerOp, cur.AllocsPerOp, gate.frac*b.AllocsPerOp, gate.frac*100)
				failed = true
			default:
				fmt.Printf("benchdiff: alloc drop %-28s %6.1f -> %6.1f allocs/op (<= %.0f%% of baseline ok)\n",
					gate.name, b.AllocsPerOp, cur.AllocsPerOp, gate.frac*100)
			}
		}
	}

	if failed {
		os.Exit(1)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// allocGate is one -allocdrop requirement: the named benchmark's current
// allocs/op must not exceed frac of its baseline allocs/op.
type allocGate struct {
	name string
	frac float64
}

// parseAllocDrop decodes "NameA=0.5,NameB=0.25".
func parseAllocDrop(s string) ([]allocGate, error) {
	var gates []allocGate
	for _, part := range strings.Split(s, ",") {
		name, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -allocdrop element %q", part)
		}
		frac, err := strconv.ParseFloat(v, 64)
		if err != nil || frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("bad -allocdrop fraction %q (want (0,1])", v)
		}
		gates = append(gates, allocGate{name: name, frac: frac})
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("-allocdrop given but empty")
	}
	return gates, nil
}

// parseSpeedup decodes "base=A,opt=B,min=2.0".
func parseSpeedup(s string) (base, opt string, min float64, err error) {
	min = 1
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return "", "", 0, fmt.Errorf("bad -speedup element %q", part)
		}
		switch k {
		case "base":
			base = v
		case "opt":
			opt = v
		case "min":
			if min, err = strconv.ParseFloat(v, 64); err != nil {
				return "", "", 0, fmt.Errorf("bad -speedup min %q", v)
			}
		default:
			return "", "", 0, fmt.Errorf("unknown -speedup key %q", k)
		}
	}
	if base == "" || opt == "" {
		return "", "", 0, fmt.Errorf("-speedup needs base= and opt=")
	}
	return base, opt, min, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
