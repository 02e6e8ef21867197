// Command pxbench runs the full experiment harness — every table and
// figure of the reproduction (E1–E10, ablations A1–A4) — and prints the
// paper-style tables. Individual experiments can be selected with -only.
// Expected shapes are recorded in EXPERIMENTS.md; the same code paths run
// as benchmarks in bench_test.go.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/parcel"
	"repro/internal/pprofserve"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. e3,e7,a2); empty = all")
	quick := flag.Bool("quick", false, "smaller parameters for a fast pass")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	metricsAddr := flag.String("metrics", "", "serve process-wide px.pool.* metrics as JSON on this address; empty = off")
	flag.Parse()

	pprofserve.Start(*pprofAddr, log.Printf)
	if *metricsAddr != "" {
		// Experiment runtimes are ephemeral, so pxbench exports the
		// process-global pool counters — the part an operator can watch
		// across experiment boundaries.
		reg := metrics.NewRegistry()
		reg.RegisterFunc("px.pool.parcel.hits", func() int64 { h, _, _, _ := parcel.PoolStats(); return int64(h) })
		reg.RegisterFunc("px.pool.parcel.misses", func() int64 { _, m, _, _ := parcel.PoolStats(); return int64(m) })
		reg.RegisterFunc("px.pool.wire.hits", func() int64 { _, _, h, _ := parcel.PoolStats(); return int64(h) })
		reg.RegisterFunc("px.pool.wire.misses", func() int64 { _, _, _, m := parcel.PoolStats(); return int64(m) })
		if _, err := pprofserve.ServeMetrics(*metricsAddr, reg, nil, log.Printf); err != nil {
			log.Fatalf("pxbench: %v", err)
		}
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	scale := 1
	if *quick {
		scale = 4
	}

	if want("e1") {
		fmt.Println(experiments.RunE1())
	}
	if want("e2") {
		rep, ok := experiments.RunE2()
		fmt.Println(rep)
		if !ok {
			fmt.Println("WARNING: design point deviates from the paper")
		}
	}
	if want("e3") {
		lats := []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond}
		fmt.Println(experiments.TableE3(experiments.RunE3(lats, 4, 80/scale, nil)))
	}
	if want("e4") {
		grains := []time.Duration{
			100 * time.Microsecond, 500 * time.Microsecond,
			2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		}
		rs := experiments.RunE4(grains, 120/scale, 4, 20*time.Microsecond)
		fmt.Println(experiments.TableE4(rs))
		fmt.Printf("minimum exploitable grain (>=50%% eff): parallex %v, csp %v\n\n",
			experiments.MinExploitableGrain(rs, true), experiments.MinExploitableGrain(rs, false))
	}
	if want("e5") {
		fracs := []float64{0.0, 0.3, 0.6}
		fmt.Println(experiments.TableE5(experiments.RunE5(fracs, 3000, 4, 0, true)))
	}
	if want("e6") {
		skews := []float64{1, 4, 8, 16}
		fmt.Println(experiments.TableE6(experiments.RunE6(skews, 32, 14/scale+2, 4, time.Millisecond)))
	}
	if want("e7") {
		ratios := []float64{0.25, 0.5, 1.0, 2.0}
		depths := []int{0, 1, 2, 4, 8}
		fmt.Println(experiments.TableE7(experiments.RunE7(ratios, depths, 200, 1000, 2)))
	}
	if want("e8") {
		lats := []time.Duration{100 * time.Microsecond, 500 * time.Microsecond}
		fmt.Println(experiments.TableE8(experiments.RunE8(lats, 4, 60/scale)))
	}
	if want("e9") {
		widths := []int{1, 2, 4, 8}
		if *quick {
			widths = []int{1, 4}
		}
		fmt.Println(experiments.TableE9(experiments.RunE9(widths, 1200, 600, 6000)))
	}
	if want("e10") {
		fmt.Println(experiments.TableE10(experiments.RunE10(4000 / scale)))
	}
	if want("a1") {
		fmt.Println(experiments.TableA1(experiments.RunA1(4, 40/scale, 200*time.Microsecond)))
	}
	if want("a2") {
		fmt.Println(experiments.TableA2(experiments.RunA2([]int{1, 2, 4, 8}, 4, 300*time.Microsecond, 8/scale+1)))
	}
	if want("a3") {
		fmt.Println(experiments.TableA3(experiments.RunA3(2000, 4)))
	}
	if want("a4") {
		fmt.Println(experiments.TableA4(experiments.RunA4(4, 4, 12/scale, 8)))
	}
	if want("x1") {
		ratios := []float64{0.1, 0.5, 1, 2, 5, 10}
		fmt.Println(experiments.TableX1(experiments.RunX1(ratios, 16, 256, 8, 30)))
	}
	if want("x2") {
		fmt.Println(experiments.TableX2(experiments.RunX2([]int{0, 2, 8}, []int{0, 2, 4}, 200)))
	}
}
