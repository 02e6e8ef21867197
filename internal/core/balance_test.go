package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The whole loop, single process: a skewed object set under sustained
// load must be spread across localities by the policy engine alone, with
// a migration count near the minimum — convergence, not thrash.
func TestBalancerSpreadsSkewedObjects(t *testing.T) {
	r := New(Config{
		Localities:          4,
		WorkersPerLocality:  2,
		BalanceInterval:     10 * time.Millisecond,
		BalanceSampleEvery:  1,
		BalanceHotThreshold: 4,
		BalanceMaxMoves:     4,
	})
	defer r.Shutdown()
	r.MustRegisterAction("bal.touch", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return nil, nil
	})

	const objects = 4
	gids := make([]agas.GID, 0, objects)
	for i := 0; i < objects; i++ {
		gids = append(gids, r.NewDataAt(0, i))
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		// Sustained skewed load: every object is hammered wherever it
		// currently lives; only arrival sampling tells the balancer.
		for _, g := range gids {
			for k := 0; k < 25; k++ {
				r.SendFrom(1, parcel.New(g, "bal.touch", nil))
			}
		}
		r.Wait()

		where := make(map[int]int)
		for _, g := range gids {
			loc, _, err := r.agas.Locate(g)
			if err != nil {
				t.Fatalf("locate %v: %v", g, err)
			}
			where[loc]++
		}
		if len(where) >= 3 { // skew broken: objects on 3+ of 4 localities
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("balancer never spread the skew: placement %v, moves %d, ticks %d",
				where, r.bal.moves.Load(), r.bal.eng.Ticks())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No storm: reaching a 3-way spread needs at least 2 moves; the
	// cooldown and hysteresis guards must keep the total near that.
	if moves := r.bal.moves.Load(); moves < 2 || moves > 3*objects {
		t.Fatalf("balancer made %d moves for %d objects, want 2..%d", moves, objects, 3*objects)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}

	// The operator-facing gauges exist and move.
	snap := r.Metrics().Snapshot()
	if snap["px.balance.ticks"] == 0 || snap["px.balance.moves"] == 0 || snap["px.balance.sampled"] == 0 {
		t.Fatalf("px.balance.* gauges dead: %v", snap)
	}
}

// Balancing off must mean off: no state, no sampling, and no
// px.balance.* names in the metric registry — the operator probe for
// "is the balancer enabled here?".
func TestBalancerDisabledIsInvisible(t *testing.T) {
	r := New(Config{Localities: 2})
	defer r.Shutdown()
	if r.bal != nil {
		t.Fatal("balancer state exists with BalanceInterval unset")
	}
	r.MustRegisterAction("bal.touch", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return nil, nil
	})
	obj := r.NewDataAt(0, 1)
	for i := 0; i < 100; i++ {
		r.SendFrom(1, parcel.New(obj, "bal.touch", nil))
	}
	r.Wait()
	for name := range r.Metrics().Snapshot() {
		if strings.HasPrefix(name, "px.balance.") {
			t.Fatalf("metric %q registered with balancing disabled", name)
		}
	}
}

// TestLoadFrameCannotGrowLoadTable: a load report is socket input, and the
// balancer's remote-load table is keyed by what it names. A frame naming
// localities this machine does not have must leave the table alone.
func TestLoadFrameCannotGrowLoadTable(t *testing.T) {
	fab := transport.NewFabric(2)
	var rts [2]*Runtime
	for i := range rts {
		rts[i] = New(Config{
			Transport:       fab.Node(i),
			NodeID:          i,
			NodeLocalities:  internRanges,
			BalanceInterval: time.Hour, // a balancer that never ticks on its own
		})
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	// Hand-laid bytes, as a hostile peer would send them: three entries,
	// one real locality of node 1 and two that exist nowhere.
	frame := []byte{wire.Load, 3, 0}
	for _, loc := range []uint32{2, 4, 0xfffffff0} {
		frame = append(frame, byte(loc), byte(loc>>8), byte(loc>>16), byte(loc>>24))
		frame = append(frame, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f) // score 1.0
	}
	b := rts[0].bal
	rts[0].dist.onFrame(1, frame)
	b.mu.Lock()
	grown := len(b.remote)
	b.mu.Unlock()
	if grown != 0 {
		t.Fatalf("a load report naming nonexistent localities left %d entries in the load table", grown)
	}
	// The same report restricted to the machine's localities is taken.
	rts[0].dist.onFrame(1, wire.EncodeLoad([]wire.LoadEntry{{Loc: 2, Score: 1}, {Loc: 3, Score: 0.5}}))
	b.mu.Lock()
	got := b.remote[3].score
	b.mu.Unlock()
	if got != 0.5 || b.reports.Load() != 1 {
		t.Fatalf("well-formed load report not recorded: score %v, %d reports", got, b.reports.Load())
	}
}
