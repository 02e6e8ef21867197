package workloads

import (
	"sync"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/lco"
)

// Distributed Jacobi drivers. The 1-D field is split into P contiguous
// blocks with one-cell halos. The CSP driver uses the canonical halo
// exchange: each step every rank sends its boundary cells to its
// neighbors and blocks receiving theirs — the implicit synchronization of
// bulk-synchronous stencil codes. The ParalleX driver replaces the
// exchange with per-block dataflow gates: block i's step-s task fires when
// blocks {i-1, i, i+1} finish step s-1, the same neighborhood dependence
// with no rank-wide coupling. JacobiDistGates lifts those gates into
// globally addressable distributed LCOs triggered by parcels, so the
// synchronization lives in AGAS.
// All are verified against JacobiRun.

// JacobiCSP relaxes the field for steps sweeps over w.Size() ranks.
func JacobiCSP(w *csp.World, initial []float64, steps int) []float64 {
	n := len(initial)
	P := w.Size()
	cur := append([]float64(nil), initial...)
	next := make([]float64, n)
	var swapMu sync.Mutex
	arrived := 0
	w.Run(func(r *csp.Rank) {
		const haloTag = 1
		id := r.ID()
		lo := id * n / P
		hi := (id + 1) * n / P
		for s := 0; s < steps; s++ {
			// Halo exchange: send boundary cells, receive neighbors'.
			if id > 0 {
				r.Send(id-1, haloTag, []float64{cur[lo]})
			}
			if id < P-1 {
				r.Send(id+1, haloTag, []float64{cur[hi-1]})
			}
			left, right := 0.0, 0.0
			if id > 0 {
				left = r.Recv(id-1, haloTag).([]float64)[0]
			}
			if id < P-1 {
				right = r.Recv(id+1, haloTag).([]float64)[0]
			}
			// Local sweep using halos for the block edges.
			for i := lo; i < hi; i++ {
				switch {
				case i == 0 || i == n-1:
					next[i] = cur[i]
				case i == lo && id > 0:
					next[i] = 0.5 * (left + cur[i+1])
				case i == hi-1 && id < P-1:
					next[i] = 0.5 * (cur[i-1] + right)
				default:
					next[i] = 0.5 * (cur[i-1] + cur[i+1])
				}
			}
			// The swap is a collective act: last rank to arrive swaps.
			// (The halo exchange already orders steps between neighbors,
			// but the shared buffers require a global swap point; real MPI
			// codes have private buffers and skip this.)
			r.Barrier()
			swapMu.Lock()
			arrived++
			if arrived == P {
				arrived = 0
				cur, next = next, cur
			}
			swapMu.Unlock()
			r.Barrier()
		}
	})
	return cur
}

// JacobiParalleX relaxes the field with per-block dataflow gates instead
// of barriers: block i's step-s task depends only on its neighborhood at
// step s-1. Double buffering makes the neighborhood dependence sufficient:
// a block rewrites a buffer only after its neighbors have finished the
// step that read it.
func JacobiParalleX(rt *core.Runtime, initial []float64, steps, blocks int) []float64 {
	n := len(initial)
	if blocks < 1 {
		blocks = 1
	}
	P := rt.Localities()
	bufA := append([]float64(nil), initial...)
	bufB := make([]float64, n)
	copy(bufB, initial) // boundaries preserved in both buffers

	// gates[s][b] fires when block b may run step s.
	gates := make([][]*lco.AndGate, steps)
	for s := 1; s < steps; s++ {
		gates[s] = make([]*lco.AndGate, blocks)
		for b := 0; b < blocks; b++ {
			deps := 1
			if b > 0 {
				deps++
			}
			if b < blocks-1 {
				deps++
			}
			gates[s][b] = lco.NewAndGate(deps)
		}
	}
	done := lco.NewAndGate(blocks)

	var run func(s, b int)
	run = func(s, b int) {
		rt.Spawn(b%P, func(ctx *core.Context) {
			src, dst := bufA, bufB
			if s%2 == 1 {
				src, dst = bufB, bufA
			}
			lo := b * n / blocks
			hi := (b + 1) * n / blocks
			for i := lo; i < hi; i++ {
				if i == 0 || i == n-1 {
					dst[i] = src[i]
					continue
				}
				dst[i] = 0.5 * (src[i-1] + src[i+1])
			}
			if s == steps-1 {
				done.Signal()
				return
			}
			for _, nb := range neighborBlocks(b, blocks) {
				gates[s+1][nb].Signal()
			}
		})
	}
	for s := 1; s < steps; s++ {
		for b := 0; b < blocks; b++ {
			s, b := s, b
			gates[s][b].OnFire(func() { run(s, b) })
		}
	}
	if steps == 0 {
		return bufA
	}
	for b := 0; b < blocks; b++ {
		run(0, b)
	}
	done.Wait()
	if steps%2 == 1 {
		return bufB
	}
	return bufA
}

func neighborBlocks(b, blocks int) []int {
	out := []int{b}
	if b > 0 {
		out = append(out, b-1)
	}
	if b < blocks-1 {
		out = append(out, b+1)
	}
	return out
}

// JacobiDistGates is the halo exchange on distributed gates: the same
// per-block neighborhood dependence as JacobiParalleX, but every gate is
// a globally addressable LCO (Runtime.NewDistGateAt) signalled through
// parcel triggers instead of an in-memory callback object. The gates are
// therefore first-class AGAS citizens — they can be observed, triggered,
// or migrated from anywhere in the machine — which makes this the driver
// whose synchronization survives the distribution modes the in-memory
// variant cannot express.
func JacobiDistGates(rt *core.Runtime, initial []float64, steps, blocks int) []float64 {
	n := len(initial)
	if blocks < 1 {
		blocks = 1
	}
	P := rt.Localities()
	bufA := append([]float64(nil), initial...)
	if steps == 0 {
		return bufA
	}
	bufB := make([]float64, n)
	copy(bufB, initial)

	// gates[s][b] opens block b's step s; each is an AGAS-named gate homed
	// on the locality that will run the block.
	gates := make([][]agas.GID, steps)
	for s := 1; s < steps; s++ {
		gates[s] = make([]agas.GID, blocks)
		for b := 0; b < blocks; b++ {
			deps := 1
			if b > 0 {
				deps++
			}
			if b < blocks-1 {
				deps++
			}
			gates[s][b] = rt.NewDistGateAt(b%P, deps)
		}
	}
	doneGID := rt.NewDistGateAt(0, blocks)
	done := rt.WaitLCO(0, doneGID)

	var run func(s, b int)
	run = func(s, b int) {
		rt.Spawn(b%P, func(ctx *core.Context) {
			src, dst := bufA, bufB
			if s%2 == 1 {
				src, dst = bufB, bufA
			}
			lo := b * n / blocks
			hi := (b + 1) * n / blocks
			for i := lo; i < hi; i++ {
				if i == 0 || i == n-1 {
					dst[i] = src[i]
					continue
				}
				dst[i] = 0.5 * (src[i-1] + src[i+1])
			}
			if s == steps-1 {
				rt.SignalLCO(ctx.Locality(), doneGID)
				return
			}
			for _, nb := range neighborBlocks(b, blocks) {
				rt.SignalLCO(ctx.Locality(), gates[s+1][nb])
			}
		})
	}
	for s := 1; s < steps; s++ {
		for b := 0; b < blocks; b++ {
			s, b := s, b
			rt.WaitLCO(b%P, gates[s][b]).OnReady(func(any, error) { run(s, b) })
		}
	}
	for b := 0; b < blocks; b++ {
		run(0, b)
	}
	done.Get()
	for s := 1; s < steps; s++ {
		for b := 0; b < blocks; b++ {
			rt.FreeObject(gates[s][b])
		}
	}
	rt.FreeObject(doneGID)
	if steps%2 == 1 {
		return bufB
	}
	return bufA
}
