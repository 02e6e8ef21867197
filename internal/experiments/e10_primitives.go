package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/lco"
	"repro/internal/litlx"
	"repro/internal/network"
	"repro/internal/parcel"
)

// E10 — primitive operation costs (§2.2 threads are "ephemeral … near
// fine grain"; §2.3 LITL-X manages overhead). The overhead budget of the
// runtime: cost per thread spawn, future cycle, LCO signal, local and
// remote parcel, atomic section, and a CSP message for comparison. These
// set the minimum exploitable granularity measured in E4.
type E10Result struct {
	Name   string
	PerOp  time.Duration
	Count  int
	Remark string
}

// RunE10 measures each primitive with count iterations.
func RunE10(count int) []E10Result {
	var out []E10Result
	mk := func(name string, n int, remark string, fn func(n int)) {
		start := time.Now()
		fn(n)
		el := time.Since(start)
		out = append(out, E10Result{Name: name, PerOp: el / time.Duration(n), Count: n, Remark: remark})
	}

	rt := core.New(core.Config{Localities: 2, WorkersPerLocality: 4})
	defer rt.Shutdown()
	litlx.RegisterActions(rt)
	api := litlx.New(rt)
	localObj := rt.NewDataAt(0, struct{}{})
	remoteObj := rt.NewDataAt(1, struct{}{})

	mk("thread spawn+run", count, "Spawn to same locality, quiesce at end", func(n int) {
		for i := 0; i < n; i++ {
			rt.Spawn(0, func(*core.Context) {})
		}
		rt.Wait()
	})
	mk("future set+get", count, "single-assignment LCO cycle", func(n int) {
		for i := 0; i < n; i++ {
			f := lco.NewFuture()
			f.Set(i)
			f.Get()
		}
	})
	mk("andgate signal", count, "join-counter decrement", func(n int) {
		g := lco.NewAndGate(n)
		for i := 0; i < n; i++ {
			g.Signal()
		}
		g.Wait()
	})
	mk("dataflow 2-in fire", count, "2-input template supply+fire", func(n int) {
		for i := 0; i < n; i++ {
			d := lco.NewDataflow(2, func(in []any) (any, error) { return nil, nil })
			d.Supply(0, nil)
			d.Supply(1, nil)
		}
	})
	mk("parcel local", count, "same-locality delivery (no wire)", func(n int) {
		for i := 0; i < n; i++ {
			rt.SendFrom(0, parcel.New(localObj, core.ActionNop, nil))
		}
		rt.Wait()
	})
	mk("parcel remote 1-way", count, "cross-locality, by pointer, ideal net", func(n int) {
		for i := 0; i < n; i++ {
			rt.SendFrom(0, parcel.New(remoteObj, core.ActionNop, nil))
		}
		rt.Wait()
	})
	mk("call round trip", count/4+1, "split-phase call + continuation back", func(n int) {
		for i := 0; i < n; i++ {
			rt.CallFrom(0, remoteObj, core.ActionNop, nil).Get()
		}
	})
	mk("atomic section", count/4+1, "LITL-X section at owner locality", func(n int) {
		at := api.NewAtomic(1, int64(0))
		for i := 0; i < n; i++ {
			at.Do(0, func(s any) (any, any, error) { return s, nil, nil }).Get()
		}
	})

	w := csp.NewWorld(2, network.NewIdeal(2))
	mk("csp msg round trip", count/4+1, "two-sided send+recv echo", func(n int) {
		w.Run(func(r *csp.Rank) {
			for i := 0; i < n; i++ {
				if r.ID() == 0 {
					r.Send(1, 1, nil)
					r.Recv(1, 2)
				} else {
					r.Recv(0, 1)
					r.Send(0, 2, nil)
				}
			}
		})
	})
	return out
}

// TableE10 renders the results.
func TableE10(results []E10Result) Table {
	t := Table{
		Title:   "E10 primitive costs (the overhead budget behind E4's minimum granularity)",
		Columns: []string{"primitive", "ns/op", "ops", "notes"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.PerOp.Nanoseconds()),
			fmt.Sprintf("%d", r.Count), r.Remark,
		})
	}
	return t
}
