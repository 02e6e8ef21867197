package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/locality"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// The migration fence must quiesce the object: an action observed running
// when the fence closes completes before the payload moves, and parcels
// arriving mid-move park (with their work units charged, so Wait counts
// them) and re-execute against the new location afterwards.
func TestMigrationFenceParksAndReplays(t *testing.T) {
	r := New(Config{Localities: 3, WorkersPerLocality: 2})
	defer r.Shutdown()

	inAction := make(chan struct{})
	release := make(chan struct{})
	var sum atomic.Int64
	r.MustRegisterAction("fence.add", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		v := args.Int64()
		if err := args.Err(); err != nil {
			return nil, err
		}
		if v == 1 { // the slow first parcel holds the object busy
			close(inAction)
			<-release
		}
		sum.Add(v)
		return nil, nil
	})
	obj := r.NewDataAt(0, struct{}{})

	// Occupy the object, then start a migration that must wait for it.
	r.SendFrom(0, parcel.New(obj, "fence.add", parcel.NewArgs().Int64(1).Encode()))
	<-inAction
	migDone := make(chan error, 1)
	go func() { migDone <- r.Migrate(obj, 2) }()

	// Wait until the migration has observably closed the fence — only
	// then is parking guaranteed for the chasers below.
	waitFenceClosed(t, r, obj)
	deadline := time.Now().Add(5 * time.Second)

	// The fence is closed: parcels sent now must park — neither running
	// at the vanishing old location nor getting lost. An idle sibling
	// worker drains them into the fence while the first action blocks.
	for i := 0; i < 8; i++ {
		r.SendFrom(1, parcel.New(obj, "fence.add", parcel.NewArgs().Int64(10).Encode()))
	}
	for r.slow.Parked.Value() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 chasers parked", r.slow.Parked.Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-migDone:
		t.Fatalf("migration completed while an action was running: %v", err)
	default:
	}
	close(release)
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if got := sum.Load(); got != 81 {
		t.Fatalf("sum = %d, want 81 (1 + 8×10): parcels lost or duplicated across the move", got)
	}
	if owner, err := r.AGAS().Owner(obj); err != nil || owner != 2 {
		t.Fatalf("owner after migration = %d, %v", owner, err)
	}
	if _, ok := r.LocalObject(2, obj); !ok {
		t.Fatal("payload not at the new locality")
	}
	if r.SLOW().Parked.Value() == 0 {
		t.Fatal("no parcel was parked despite the held fence")
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// waitFenceClosed polls until a migration has closed g's store entry.
// A probe that finds the entry open is admitted, so it exits at once.
func waitFenceClosed(t *testing.T, r *Runtime, g agas.GID) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		switch res := residentOf(t, r, g); res.Enter() {
		case locality.Closed:
			return
		case locality.Admitted:
			res.Exit()
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never closed the fence")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// residentOf returns the store entry of g at its owner, a locality of r.
func residentOf(t *testing.T, r *Runtime, g agas.GID) *locality.Resident {
	t.Helper()
	owner, err := r.agas.Owner(g)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := r.loc(owner).Store().Lookup(g)
	if !ok {
		t.Fatalf("%v not in the store of its owner L%d", g, owner)
	}
	return res
}

// An action migrating a second object while its own target is being
// quiesced must not deadlock: migrations lock per object, never
// runtime-wide, so the fence waiting on this action cannot block the
// action's own (unrelated) migration.
func TestMigrateFromActionDuringOwnMigration(t *testing.T) {
	r := New(Config{Localities: 3, WorkersPerLocality: 2})
	defer r.Shutdown()
	other := r.NewDataAt(1, []int64{1})
	inAction := make(chan struct{})
	proceed := make(chan struct{})
	r.MustRegisterAction("abba.move", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		close(inAction)
		<-proceed
		return nil, ctx.Runtime().Migrate(other, 2)
	})
	obj := r.NewDataAt(0, struct{}{})
	r.SendFrom(0, parcel.New(obj, "abba.move", nil))
	<-inAction
	migDone := make(chan error, 1)
	go func() { migDone <- r.Migrate(obj, 1) }()
	waitFenceClosed(t, r, obj) // obj's migration now waits on the action...
	close(proceed)             // ...which itself migrates `other`
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if owner, err := r.AGAS().Owner(obj); err != nil || owner != 1 {
		t.Fatalf("obj owner = %d, %v; want 1", owner, err)
	}
	if owner, err := r.AGAS().Owner(other); err != nil || owner != 2 {
		t.Fatalf("other owner = %d, %v; want 2", owner, err)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// Hardware names anchor broadcast and spawn routing and must never move.
func TestMigrateHardwareRejected(t *testing.T) {
	r := New(Config{Localities: 2})
	defer r.Shutdown()
	if err := r.Migrate(r.LocalityGID(0), 1); err == nil {
		t.Fatal("hardware migration accepted")
	}
}

// Generation must advance once per migration so stale verdicts order
// correctly, and repeated migration keeps exactly one copy live.
func TestMigrationGenerationsAdvance(t *testing.T) {
	r := New(Config{Localities: 4})
	defer r.Shutdown()
	obj := r.NewDataAt(0, []int64{7})
	for i, to := range []int{1, 3, 2, 0} {
		if err := r.Migrate(obj, to); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		_, gen, err := r.AGAS().Locate(obj)
		if err != nil || gen != uint64(i)+2 {
			t.Fatalf("after move %d generation = %d, %v; want %d", i, gen, err, i+2)
		}
		copies := 0
		for loc := 0; loc < 4; loc++ {
			if _, ok := r.LocalObject(loc, obj); ok {
				copies++
			}
		}
		if copies != 1 {
			t.Fatalf("after move %d found %d copies", i, copies)
		}
	}
}

// A migration racing a stream of split-phase calls must resolve every
// future exactly once — the single-process half of the distributed
// stress guarantee.
func TestMigrationUnderConcurrentCalls(t *testing.T) {
	r := New(Config{Localities: 4, WorkersPerLocality: 2})
	defer r.Shutdown()
	r.MustRegisterAction("mig.incr", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		// Actions on one object are not serialized: two workers of its
		// locality may run them at once.
		return atomic.AddInt64(target.(*int64), 1), nil
	})
	var count int64
	obj := r.NewObjectAt(0, agas.KindData, &count)

	const senders, calls = 4, 40
	var wg sync.WaitGroup
	// progress[s] receives once per call sender s completes, and closes
	// when it stops.
	progress := make([]chan struct{}, senders)
	for s := 0; s < senders; s++ {
		progress[s] = make(chan struct{}, calls)
		wg.Add(1)
		go func(src int, done chan<- struct{}) {
			defer wg.Done()
			defer close(done)
			for i := 0; i < calls; i++ {
				fut := r.CallFrom(src, obj, "mig.incr", nil)
				if _, err := fut.Get(); err != nil {
					t.Errorf("call from L%d: %v", src, err)
					return
				}
				done <- struct{}{}
			}
		}(s, progress[s])
	}
	for _, to := range []int{2, 3, 1} {
		// Each move waits for every sender to complete one more call, so
		// the moves happen under load.
		for _, c := range progress {
			<-c
		}
		if err := r.Migrate(obj, to); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	r.Wait()
	if count != senders*calls {
		t.Fatalf("count = %d, want %d", count, senders*calls)
	}
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}

// pairWires returns the wires of a two-node machine: the in-process
// fabric, or loopback TCP with one lane.
func pairWires(t *testing.T, tcp bool) [2]transport.Transport {
	if !tcp {
		fab := transport.NewFabric(2)
		return [2]transport.Transport{fab.Node(0), fab.Node(1)}
	}
	var tcps [2]*transport.TCP
	addrs := make([]string, 2)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2), Lanes: 1, DisableSameHost: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i], addrs[i] = tr, tr.Addr().String()
	}
	for _, tr := range tcps {
		tr.SetPeers(addrs)
	}
	return [2]transport.Transport{tcps[0], tcps[1]}
}

// TestCrossedMigrationsFromActions: two nodes with one locality and one
// worker each, and an action on each that migrates a local object to the
// other node at the same time. Each install reaches a node whose only
// worker is held by the other action, so it must run on the read
// goroutine that decodes it: queued behind that action, neither move
// could complete.
func TestCrossedMigrationsFromActions(t *testing.T) {
	for _, wire := range []string{"fabric", "tcp-1lane"} {
		t.Run(wire, func(t *testing.T) {
			trs := pairWires(t, wire == "tcp-1lane")
			var inActions sync.WaitGroup
			inActions.Add(2)
			var rts [2]*Runtime
			for i := range rts {
				rts[i] = New(Config{
					Transport:          trs[i],
					NodeID:             i,
					NodeLocalities:     []agas.Range{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}},
					WorkersPerLocality: 1,
					Register: func(r *Runtime) {
						r.MustRegisterAction("cross.move", func(ctx *Context, _ any, args *parcel.Reader) (any, error) {
							g, to := args.GID(), int(args.Int64())
							if err := args.Err(); err != nil {
								return nil, err
							}
							// Both workers are held before either move starts.
							inActions.Done()
							inActions.Wait()
							return nil, ctx.Runtime().Migrate(g, to)
						})
						r.MustRegisterAction("cross.get", func(_ *Context, target any, _ *parcel.Reader) (any, error) {
							return target, nil
						})
					},
				})
			}
			defer func() {
				for _, rt := range rts {
					rt.Shutdown()
				}
			}()
			objs := [2]agas.GID{rts[0].NewDataAt(0, int64(10)), rts[1].NewDataAt(1, int64(11))}
			var moves [2]*lco.Future
			for i, rt := range rts {
				moves[i] = rt.CallFrom(i, rt.LocalityGID(i), "cross.move", parcel.NewArgs().GID(objs[i]).Int64(int64(1-i)).Encode())
			}
			deadline := time.After(migrateVerdictBound / 2)
			for i, fut := range moves {
				select {
				case <-fut.Done():
					if _, err := fut.Get(); err != nil {
						t.Fatalf("node %d's move: %v", i, err)
					}
				case <-deadline:
					t.Fatalf("node %d's move is still waiting: the crossed installs deadlocked", i)
				}
			}
			for i, rt := range rts {
				if _, ok := rt.LocalObject(i, objs[1-i]); !ok {
					t.Errorf("node %d does not hold the object moved to it", i)
				}
				for j, g := range objs {
					if v, err := rt.CallFrom(i, g, "cross.get", nil).Get(); err != nil || v.(int64) != int64(10+j) {
						t.Errorf("node %d calling object %d: %v, %v; want %d", i, j, v, err, 10+j)
					}
				}
			}
		})
	}
}

// TestMisdirectedInstallFails: an install whose args name another node
// than the one it reaches is refused, and leaves neither the object nor
// an import behind. The same install naming the node it reaches applies.
func TestMisdirectedInstallFails(t *testing.T) {
	trs := pairWires(t, false)
	var rts [2]*Runtime
	for i := range rts {
		rts[i] = New(Config{Transport: trs[i], NodeID: i, NodeLocalities: internRanges})
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	install := func(g agas.GID, node int) error {
		a := parcel.NewArgs().GID(g).Uint64(1).Int64(int64(node))
		if err := a.Value(int64(5)); err != nil {
			t.Fatal(err)
		}
		_, err := rts[0].CallFrom(0, rts[0].LocalityGID(2), ActionAGASInstall, a.Encode()).Get()
		return err
	}
	stray := agas.GID{Home: 0, Kind: agas.KindData, Seq: 1 << 40}
	if err := install(stray, 0); err == nil || !strings.Contains(err.Error(), "not hosted by node 0") {
		t.Fatalf("install naming node 0 delivered to node 1: %v, want it refused", err)
	}
	if v, ok := rts[1].LocalObject(2, stray); ok {
		t.Fatalf("the refused install stored %v", v)
	}
	if owner, gen, err := rts[1].AGAS().Locate(stray); err != nil || owner != 0 || gen != 0 {
		t.Fatalf("node 1 locates the refused object at L%d gen %d (%v), want its home at gen 0: no import", owner, gen, err)
	}
	placed := agas.GID{Home: 0, Kind: agas.KindData, Seq: 1<<40 + 1}
	if err := install(placed, 1); err != nil {
		t.Fatalf("install naming node 1: %v", err)
	}
	if v, ok := rts[1].LocalObject(2, placed); !ok || v.(int64) != 5 {
		t.Fatalf("the install stored %v (present %v), want 5", v, ok)
	}
	if owner, gen, err := rts[1].AGAS().Locate(placed); err != nil || owner != 2 || gen != 1 {
		t.Fatalf("node 1 locates the installed object at L%d gen %d (%v), want L2 gen 1", owner, gen, err)
	}
}

// rotCounter is TestResidentFenceRotation's object: a pointer, so an
// action can tell its own target from whatever its store holds.
type rotCounter struct{ n atomic.Int64 }

// TestResidentFenceRotation: every locality calls objects that migrate
// 0→1→2→0 in a loop, queued and direct calls alike. Each action checks
// that its own locality's store holds its target, on entry and on exit,
// so no action runs against an object that has left, and every object's
// count comes out exact.
func TestResidentFenceRotation(t *testing.T) {
	const locs, objs, rounds = 3, 4, 30
	var strays atomic.Int64
	bump := func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		g := args.GID()
		if err := args.Err(); err != nil {
			return nil, err
		}
		c := target.(*rotCounter)
		here := func() bool {
			res, ok := ctx.rt.loc(ctx.loc).Store().Lookup(g)
			return ok && res.V == c
		}
		if !here() {
			strays.Add(1)
		}
		c.n.Add(1)
		if !here() {
			strays.Add(1)
		}
		return nil, nil
	}
	r := New(Config{Localities: locs, WorkersPerLocality: 2, Register: func(rt *Runtime) {
		rt.MustRegisterAction("rot.bump", bump)
		rt.MustRegisterAction("rot.dbump", bump)
		rt.MarkDirect("rot.dbump")
	}})
	defer r.Shutdown()
	gids := make([]agas.GID, objs)
	for i := range gids {
		gids[i] = r.NewDataAt(0, &rotCounter{})
	}
	// Callers call until the mover has turned every object round the
	// three localities rounds/3 times; the mover waits for a few answers
	// between rounds, so calls and moves interleave.
	var answered atomic.Int64
	calls := make([]atomic.Int64, objs)
	done := make(chan struct{})
	var callers sync.WaitGroup
	for src := 0; src < locs; src++ {
		callers.Add(1)
		go func(src int) {
			defer callers.Done()
			for i := 0; ; i++ {
				for j, g := range gids {
					select {
					case <-done:
						return
					default:
					}
					action := "rot.bump"
					if (i+j)%2 == 0 {
						action = "rot.dbump"
					}
					if _, err := r.CallFrom(src, g, action, parcel.NewArgs().GID(g).Encode()).Get(); err != nil {
						t.Errorf("%s from L%d: %v", action, src, err)
					}
					calls[j].Add(1)
					answered.Add(1)
				}
			}
		}(src)
	}
	for round := 1; round <= rounds; round++ {
		for _, g := range gids {
			if err := r.Migrate(g, round%locs); err != nil {
				t.Errorf("migrate to L%d: %v", round%locs, err)
			}
		}
		for mark := answered.Load(); answered.Load() < mark+objs; {
			runtime.Gosched()
		}
	}
	close(done)
	callers.Wait()
	r.Wait()
	if n := strays.Load(); n != 0 {
		t.Fatalf("%d action checks found the target gone from their locality's store", n)
	}
	for i, g := range gids {
		v, ok := r.LocalObject(0, g)
		if !ok {
			t.Fatalf("object %d not back at L0", i)
		}
		if got, want := v.(*rotCounter).n.Load(), calls[i].Load(); got != want {
			t.Fatalf("object %d counted %d calls, want %d", i, got, want)
		}
	}
	t.Logf("%d parked", r.slow.Parked.Value())
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("runtime errors: %v", errs)
	}
}
