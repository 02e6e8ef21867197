package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/agas"
	"repro/internal/network"
	"repro/internal/parcel"
)

// Property: any randomly generated program of nested spawns, remote calls,
// and continuation chains quiesces, resolves every future, and executes
// exactly the expected number of actions. This is the runtime's core
// soundness statement: the work-counting quiescence protocol cannot lose
// or invent work under arbitrary program shapes.
func TestPropertyRandomProgramsQuiesce(t *testing.T) {
	f := func(seed int64, locs8, depth8, fan8 uint8) bool {
		locs := int(locs8%4) + 1
		depth := int(depth8 % 4)
		fan := int(fan8%3) + 1

		r := New(Config{
			Localities:         locs,
			WorkersPerLocality: 2,
			Net:                network.NewCrossbar(locs, network.Params{InjectionOverhead: 10 * time.Microsecond}),
		})
		defer r.Shutdown()

		var executed atomic.Int64
		r.MustRegisterAction("stress.touch", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
			executed.Add(1)
			return int64(1), nil
		})
		objs := make([]agas.GID, locs)
		for i := range objs {
			objs[i] = r.NewDataAt(i, struct{}{})
		}

		// build tasks run concurrently across localities; rand.Rand is not
		// concurrency-safe, so destination picks go through a lock.
		rng := rand.New(rand.NewSource(seed))
		var rngMu sync.Mutex
		pick := func() agas.GID {
			rngMu.Lock()
			defer rngMu.Unlock()
			return objs[rng.Intn(locs)]
		}
		pickLoc := func() int {
			rngMu.Lock()
			defer rngMu.Unlock()
			return rng.Intn(locs)
		}
		var expect int64
		// Each tree node spawns fan children down to depth, and each node
		// issues one remote call (action execution) plus a 2-hop chain.
		var countNodes func(d int) int64
		countNodes = func(d int) int64 {
			if d < 0 {
				return 0
			}
			n := int64(1)
			for i := 0; i < fan; i++ {
				n += countNodes(d - 1)
			}
			return n
		}
		nodes := countNodes(depth)
		expect = nodes * 3 // 1 call + 2 chain hops per node

		futs := make(chan any, nodes)
		var build func(ctx *Context, d int)
		build = func(ctx *Context, d int) {
			// Remote call with reply.
			fut := ctx.Call(pick(), "stress.touch", nil)
			// Continuation chain: touch two more objects in sequence.
			a, b := pick(), pick()
			ctx.Send(parcel.New(a, "stress.touch", nil,
				parcel.Continuation{Target: b, Action: "stress.touch"}))
			futs <- fut
			if d > 0 {
				for i := 0; i < fan; i++ {
					ctx.SpawnAt(pickLoc(), func(c *Context) { build(c, d-1) })
				}
			}
		}
		r.Spawn(0, func(ctx *Context) { build(ctx, depth) })
		r.Wait()
		close(futs)
		for f := range futs {
			fut := f.(interface{ TryGet() (any, error, bool) })
			if _, err, ok := fut.TryGet(); !ok || err != nil {
				return false
			}
		}
		if len(r.Errors()) != 0 {
			return false
		}
		return executed.Load() == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: quiescence under a migration storm — objects migrate while a
// stream of parcels targets them; forwarding must deliver every parcel
// exactly once.
func TestPropertyMigrationStormDeliversAll(t *testing.T) {
	f := func(seed int64, moves8 uint8) bool {
		const locs = 4
		r := New(Config{Localities: locs, WorkersPerLocality: 2})
		defer r.Shutdown()
		var hits atomic.Int64
		r.MustRegisterAction("storm.hit", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
			hits.Add(1)
			return nil, nil
		})
		obj := r.NewDataAt(0, struct{}{})
		sendRng := rand.New(rand.NewSource(seed))
		moveRng := rand.New(rand.NewSource(seed + 1))
		moves := int(moves8%6) + 1
		const parcels = 50
		doneSending := make(chan struct{})
		go func() {
			defer close(doneSending)
			for i := 0; i < parcels; i++ {
				r.SendFrom(sendRng.Intn(locs), parcel.New(obj, "storm.hit", nil))
			}
		}()
		for m := 0; m < moves; m++ {
			if err := r.Migrate(obj, moveRng.Intn(locs)); err != nil {
				return false
			}
		}
		<-doneSending
		r.Wait()
		if errs := r.Errors(); len(errs) != 0 {
			t.Logf("errors: %v", errs)
			return false
		}
		return hits.Load() == parcels
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
