package workloads

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/network"
)

func newRT(t *testing.T, locs int, stealing bool) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{
		Localities:         locs,
		WorkersPerLocality: 2,
		Stealing:           stealing,
	})
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestNBodyParalleXMatchesSequential(t *testing.T) {
	bodies := GenerateClusteredBodies(400, 0.3, 21)
	wantX, wantY := NBodyForcesSeq(bodies, 0.5)
	rt := newRT(t, 4, true)
	gotX, gotY := NBodyForcesParalleX(rt, bodies, 0.5, 32)
	for i := range bodies {
		if math.Abs(gotX[i]-wantX[i]) > 1e-12 || math.Abs(gotY[i]-wantY[i]) > 1e-12 {
			t.Fatalf("body %d: (%g,%g) vs (%g,%g)", i, gotX[i], gotY[i], wantX[i], wantY[i])
		}
	}
}

func TestNBodyCSPMatchesSequential(t *testing.T) {
	bodies := GenerateClusteredBodies(400, 0.3, 22)
	wantX, wantY := NBodyForcesSeq(bodies, 0.5)
	w := csp.NewWorld(4, network.NewIdeal(4))
	gotX, gotY := NBodyForcesCSP(w, bodies, 0.5)
	for i := range bodies {
		if gotX[i] != wantX[i] || gotY[i] != wantY[i] {
			t.Fatalf("body %d mismatch", i)
		}
	}
}

func TestBFSParalleXMatchesSequential(t *testing.T) {
	g := GenerateGraph(400, 4, 23)
	want := g.BFS(7)
	rt := newRT(t, 4, false)
	RegisterGraphActions(rt)
	dg := NewDistGraph(rt, g)
	got := dg.BFSParalleX(7)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: async %d, sequential %d", v, got[v], want[v])
		}
	}
}

func TestBFSParalleXRepeatable(t *testing.T) {
	g := GenerateGraph(200, 3, 24)
	rt := newRT(t, 3, false)
	RegisterGraphActions(rt)
	dg := NewDistGraph(rt, g)
	first := append([]int32(nil), dg.BFSParalleX(0)...)
	second := dg.BFSParalleX(0)
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("vertex %d: %d then %d", v, first[v], second[v])
		}
	}
}

func TestBFSCSPMatchesSequential(t *testing.T) {
	g := GenerateGraph(400, 4, 25)
	want := g.BFS(3)
	w := csp.NewWorld(4, network.NewIdeal(4))
	got := BFSCSP(w, g, 3)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: csp %d, sequential %d", v, got[v], want[v])
		}
	}
}

func TestPICStepParalleXMatchesSequential(t *testing.T) {
	seq := NewPIC(3000, 64, 26)
	par := NewPIC(3000, 64, 26)
	rt := newRT(t, 4, false)
	for s := 0; s < 3; s++ {
		seq.Step(0.01)
		PICStepParalleX(rt, par, 16, 0.01)
		rt.Wait()
	}
	for i := range seq.Particles {
		if math.Abs(seq.Particles[i].X-par.Particles[i].X) > 1e-12 ||
			math.Abs(seq.Particles[i].V-par.Particles[i].V) > 1e-12 {
			t.Fatalf("particle %d diverged: %+v vs %+v", i, seq.Particles[i], par.Particles[i])
		}
	}
}

func TestPICStepCSPMatchesSequential(t *testing.T) {
	seq := NewPIC(2000, 32, 27)
	par := NewPIC(2000, 32, 27)
	w := csp.NewWorld(4, network.NewIdeal(4))
	for s := 0; s < 3; s++ {
		seq.Step(0.01)
		PICStepCSP(w, par, 0.01)
	}
	for i := range seq.Particles {
		if math.Abs(seq.Particles[i].X-par.Particles[i].X) > 1e-12 {
			t.Fatalf("particle %d diverged", i)
		}
	}
}

func TestAMRIntegrationAgreesAcrossDrivers(t *testing.T) {
	f := SpikyFunction(0.4, 0.02)
	root := BuildAMR(f, 1e-4, 12)
	want := IntegrateAMR(f, root)
	rt := newRT(t, 4, true)
	gotPX := IntegrateAMRParalleX(rt, f, root)
	w := csp.NewWorld(4, network.NewIdeal(4))
	gotCSP := IntegrateAMRCSP(w, f, root)
	if math.Abs(gotPX-want) > 1e-9 {
		t.Fatalf("ParalleX integral %g, want %g", gotPX, want)
	}
	if math.Abs(gotCSP-want) > 1e-9 {
		t.Fatalf("CSP integral %g, want %g", gotCSP, want)
	}
}

func TestJacobiCSPMatchesSequential(t *testing.T) {
	initial := JacobiInitial(97)
	want := JacobiRun(initial, 40)
	w := csp.NewWorld(4, network.NewIdeal(4))
	got := JacobiCSP(w, initial, 40)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: csp %g, sequential %g", i, got[i], want[i])
		}
	}
}

func TestJacobiParalleXMatchesSequential(t *testing.T) {
	initial := JacobiInitial(97)
	for _, steps := range []int{1, 2, 7, 40} {
		want := JacobiRun(initial, steps)
		rt := newRT(t, 4, false)
		got := JacobiParalleX(rt, initial, steps, 8)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("steps=%d cell %d: parallex %g, sequential %g",
					steps, i, got[i], want[i])
			}
		}
	}
}

func TestJacobiParalleXZeroSteps(t *testing.T) {
	initial := JacobiInitial(17)
	rt := newRT(t, 2, false)
	got := JacobiParalleX(rt, initial, 0, 4)
	for i := range initial {
		if got[i] != initial[i] {
			t.Fatalf("zero steps mutated field at %d", i)
		}
	}
}

func TestJacobiParalleXSingleBlock(t *testing.T) {
	initial := JacobiInitial(33)
	want := JacobiRun(initial, 10)
	rt := newRT(t, 1, false)
	got := JacobiParalleX(rt, initial, 10, 1)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d mismatch", i)
		}
	}
}

func TestJacobiDistGatesMatchesSequential(t *testing.T) {
	initial := JacobiInitial(97)
	for _, steps := range []int{1, 2, 7, 20} {
		want := JacobiRun(initial, steps)
		rt := newRT(t, 4, false)
		got := JacobiDistGates(rt, initial, steps, 8)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("steps=%d cell %d: distgates %g, sequential %g",
					steps, i, got[i], want[i])
			}
		}
	}
}

func TestJacobiDistGatesSignalsApplyOnce(t *testing.T) {
	// The distributed-gate halo exchange across four localities stays
	// exact: each gate signal is applied once, so no gate opens before all
	// of its neighbours' halos are written.
	initial := JacobiInitial(65)
	want := JacobiRun(initial, 12)
	rt := core.New(core.Config{Localities: 4, WorkersPerLocality: 2})
	t.Cleanup(rt.Shutdown)
	got := JacobiDistGates(rt, initial, 12, 8)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("cell %d: distgates %g, sequential %g", i, got[i], want[i])
		}
	}
	rt.Wait()
	if errs := rt.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

func TestJacobiDistGatesZeroSteps(t *testing.T) {
	initial := JacobiInitial(17)
	rt := newRT(t, 2, false)
	got := JacobiDistGates(rt, initial, 0, 4)
	for i := range initial {
		if got[i] != initial[i] {
			t.Fatalf("zero steps mutated field at %d", i)
		}
	}
}
