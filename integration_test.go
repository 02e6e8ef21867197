package parallex_test

// End-to-end integration tests combining several subsystems the way a real
// application would: processes spanning localities, echoed configuration,
// object migration under load, LITL-X phases, and the workload drivers —
// all on one runtime instance.

import (
	"sync/atomic"
	"testing"
	"time"

	parallex "repro"
	"repro/internal/echo"
	"repro/internal/litlx"
	"repro/internal/parcel"
	"repro/internal/process"
	"repro/internal/workloads"
)

func TestIntegrationPipelineAcrossSubsystems(t *testing.T) {
	const P = 4
	rt := parallex.New(parallex.Config{
		Localities:         P,
		WorkersPerLocality: 4,
		Net:                parallex.CrossbarNetwork(P, parallex.NetworkParams{InjectionOverhead: 20 * time.Microsecond}),
		Stealing:           true,
	})
	defer rt.Shutdown()
	echo.RegisterActions(rt)
	process.RegisterActions(rt)
	litlx.RegisterActions(rt)
	workloads.RegisterGraphActions(rt)
	api := litlx.New(rt)

	// 1. An echoed configuration value visible at every locality.
	members := []int{0, 1, 2, 3}
	cfg, err := echo.NewVar(rt, int64(10), members, 2)
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := cfg.Write(0, int64(25))
	if _, err := wf.Get(); err != nil {
		t.Fatal(err)
	}
	rt.Wait()

	// 2. A parallel process whose method reads the local echo copy and
	//    accumulates it into a LITL-X atomic section.
	total := api.NewAtomic(0, int64(0))
	cls := process.NewClass("acc", map[string]process.Method{
		"tally": func(ctx *parallex.Context, p *process.Process, part int, args *parcel.Reader) (any, error) {
			v, _, err := cfg.ReadAt(ctx.Locality())
			if err != nil {
				return nil, err
			}
			fut := total.Do(ctx.Locality(), func(state any) (any, any, error) {
				return state.(int64) + v.(int64), nil, nil
			})
			if _, err := fut.Get(); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	proc, err := process.Spawn(rt, cls, "tallyproc", members)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := proc.InvokeAll(0, "tally", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gate.Get(); err != nil {
		t.Fatal(err)
	}
	proc.Join()
	got, _ := total.Read(0).Get()
	if got.(int64) != 25*int64(P) {
		t.Fatalf("tally = %v, want %d", got, 25*P)
	}

	// 3. Migrate the atomic's anchor data and verify affinity helpers keep
	//    a follower colocated.
	anchor := rt.NewDataAt(1, "anchor")
	follower, err := rt.NewDataNear(anchor, "follower")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Migrate(anchor, 3); err != nil {
		t.Fatal(err)
	}
	if err := rt.MigrateWith(anchor, follower); err != nil {
		t.Fatal(err)
	}
	ok, _ := rt.Colocated(anchor, follower)
	if !ok {
		t.Fatal("affinity lost after migration")
	}

	// 4. Run a distributed BFS on the same runtime and verify against the
	//    sequential reference.
	g := workloads.GenerateGraph(800, 4, 5)
	dg := workloads.NewDistGraph(rt, g)
	dist := dg.BFSParalleX(0)
	want := g.BFS(0)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("BFS mismatch at %d", v)
		}
	}

	// 5. Everything quiesces with no stray errors.
	rt.Wait()
	if errs := rt.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
	proc.Terminate()
}

// TestIntegrationFaultTolerantReduction assembles a result through
// idempotent per-slot writes, one parcel per slot: each parcel is
// dispatched once, so the writes are counted exactly and every slot holds
// its own value.
func TestIntegrationFaultTolerantReduction(t *testing.T) {
	const P = 3
	rt := parallex.New(parallex.Config{Localities: P, WorkersPerLocality: 2})
	defer rt.Shutdown()

	slots := make([]atomic.Int64, 10)
	var writes atomic.Int64
	rt.MustRegisterAction("int.slot", func(ctx *parallex.Context, target any, args *parallex.ArgsReader) (any, error) {
		i := args.Int64()
		v := args.Int64()
		if err := args.Err(); err != nil {
			return nil, err
		}
		slots[i].Store(v)
		writes.Add(1)
		return nil, nil
	})
	obj := rt.NewDataAt(1, struct{}{})
	for i := 0; i < 10; i++ {
		rt.SendFrom(0, parallex.NewParcel(obj, "int.slot",
			parallex.NewArgs().Int64(int64(i)).Int64(int64(i*i)).Encode()))
	}
	rt.Wait()
	if writes.Load() != int64(len(slots)) {
		t.Fatalf("%d slot writes, want exactly %d", writes.Load(), len(slots))
	}
	for i := range slots {
		if slots[i].Load() != int64(i*i) {
			t.Fatalf("slot %d = %d", i, slots[i].Load())
		}
	}
}
