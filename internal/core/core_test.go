package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/network"
	"repro/internal/parcel"
)

func newTestRuntime(t *testing.T, locs int) *Runtime {
	t.Helper()
	r := New(Config{Localities: locs, WorkersPerLocality: 4})
	t.Cleanup(r.Shutdown)
	return r
}

func TestSpawnRunsOnRequestedLocality(t *testing.T) {
	r := newTestRuntime(t, 4)
	var got atomic.Int32
	r.Spawn(2, func(ctx *Context) { got.Store(int32(ctx.Locality())) })
	r.Wait()
	if got.Load() != 2 {
		t.Fatalf("ran on locality %d, want 2", got.Load())
	}
}

func TestWaitQuiescesNestedSpawns(t *testing.T) {
	r := newTestRuntime(t, 2)
	var n atomic.Int32
	var rec func(ctx *Context, depth int)
	rec = func(ctx *Context, depth int) {
		n.Add(1)
		if depth == 0 {
			return
		}
		for i := 0; i < 2; i++ {
			ctx.SpawnAt((ctx.Locality()+i)%2, func(c *Context) { rec(c, depth-1) })
		}
	}
	r.Spawn(0, func(ctx *Context) { rec(ctx, 5) })
	r.Wait()
	if n.Load() != 63 { // 2^6 - 1 nodes of a depth-5 binary spawn tree
		t.Fatalf("ran %d threads, want 63", n.Load())
	}
}

func TestParcelInvokesActionOnTarget(t *testing.T) {
	r := newTestRuntime(t, 2)
	type counter struct{ v atomic.Int64 }
	c := &counter{}
	gid := r.NewDataAt(1, c)
	r.MustRegisterAction("test.add", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		target.(*counter).v.Add(args.Int64())
		return nil, args.Err()
	})
	r.Spawn(0, func(ctx *Context) {
		ctx.Send(parcel.New(gid, "test.add", parcel.NewArgs().Int64(5).Encode()))
		ctx.Send(parcel.New(gid, "test.add", parcel.NewArgs().Int64(7).Encode()))
	})
	r.Wait()
	if c.v.Load() != 12 {
		t.Fatalf("counter = %d, want 12", c.v.Load())
	}
}

func TestCallReturnsResultThroughContinuation(t *testing.T) {
	r := newTestRuntime(t, 3)
	data := r.NewDataAt(2, []float64{1, 2, 3, 4})
	r.MustRegisterAction("test.sum", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		var s float64
		for _, v := range target.([]float64) {
			s += v
		}
		return s, nil
	})
	var got atomic.Value
	r.Spawn(0, func(ctx *Context) {
		f := ctx.Call(data, "test.sum", nil)
		v, err := ctx.Await(f)
		if err != nil {
			t.Errorf("call failed: %v", err)
			return
		}
		got.Store(v)
	})
	r.Wait()
	if got.Load().(float64) != 10 {
		t.Fatalf("sum = %v, want 10", got.Load())
	}
}

func TestCallChainMigratesControl(t *testing.T) {
	// A -> B -> C continuation chain: the result of stage1 at L1 feeds
	// stage2 at L2, whose result lands in a future at L0. Control migrates
	// without ever returning to L0 in between.
	r := newTestRuntime(t, 3)
	r.MustRegisterAction("test.double", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		raw := args.Bytes()
		if err := args.Err(); err != nil {
			return nil, err
		}
		v, err := parcel.DecodeAny(raw)
		if err != nil {
			return nil, err
		}
		return v.(int64) * 2, nil
	})
	obj1 := r.NewDataAt(1, "stage1")
	obj2 := r.NewDataAt(2, "stage2")
	fgid, fut := r.NewFutureAt(0)
	r.Spawn(0, func(ctx *Context) {
		seed, _ := parcel.EncodeAny(int64(5))
		p := parcel.New(obj1, "test.double", parcel.NewArgs().Bytes(seed).Encode(),
			parcel.Continuation{Target: obj2, Action: "test.double"},
			parcel.Continuation{Target: fgid, Action: ActionLCOSet},
		)
		ctx.Send(p)
	})
	r.Wait()
	v, err := fut.Get()
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 20 {
		t.Fatalf("chain result = %v, want 20", v)
	}
}

func TestActionErrorPropagatesToCaller(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	r.MustRegisterAction("test.fail", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	var got atomic.Value
	r.Spawn(0, func(ctx *Context) {
		f := ctx.Call(obj, "test.fail", nil)
		_, err := ctx.Await(f)
		got.Store(err)
	})
	r.Wait()
	err, _ := got.Load().(error)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("error = %v", err)
	}
}

// TestUnencodableResultFailsItsContinuation: a result that cannot be
// encoded for its continuation fails that continuation — here the caller's
// future — so the call answers with the encode error.
func TestUnencodableResultFailsItsContinuation(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	r.MustRegisterAction("test.chan", func(*Context, any, *parcel.Reader) (any, error) {
		return make(chan int), nil
	})
	fut := r.CallFrom(0, obj, "test.chan", nil)
	select {
	case <-fut.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("a call whose result cannot be encoded never answered")
	}
	if _, err := fut.Get(); err == nil || !strings.Contains(err.Error(), "cannot encode chan int") {
		t.Fatalf("call = %v, want the encode error", err)
	}
	r.Wait()
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("the failure was recorded instead of delivered: %v", errs)
	}
}

func TestUnknownActionRecordsError(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	r.Spawn(0, func(ctx *Context) {
		ctx.Send(parcel.New(obj, "no.such.action", nil))
	})
	r.Wait()
	errs := r.Errors()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unknown action") {
		t.Fatalf("errors = %v", errs)
	}
}

func TestDuplicateActionRejected(t *testing.T) {
	r := newTestRuntime(t, 1)
	fn := func(ctx *Context, target any, args *parcel.Reader) (any, error) { return nil, nil }
	if err := r.RegisterAction("dup", fn); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterAction("dup", fn); err == nil {
		t.Fatal("duplicate action registered")
	}
	if err := r.RegisterAction("", fn); err == nil {
		t.Fatal("empty action name registered")
	}
}

func TestMigrationWithForwarding(t *testing.T) {
	r := newTestRuntime(t, 4)
	type box struct{ v atomic.Int64 }
	b := &box{}
	gid := r.NewDataAt(0, b)
	r.MustRegisterAction("test.inc", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		target.(*box).v.Add(1)
		return nil, nil
	})
	// Locality 3 reaches the object at its first home.
	r.Spawn(3, func(ctx *Context) {
		ctx.Send(parcel.New(gid, "test.inc", nil))
	})
	r.Wait()
	if err := r.Migrate(gid, 2); err != nil {
		t.Fatal(err)
	}
	owner, _ := r.AGAS().Owner(gid)
	if owner != 2 {
		t.Fatalf("owner = %d, want 2", owner)
	}
	// The same sender reaches it at its new home: the directory commit is
	// visible to every locality at once.
	r.Spawn(3, func(ctx *Context) {
		ctx.Send(parcel.New(gid, "test.inc", nil))
	})
	r.Wait()
	if b.v.Load() != 2 {
		t.Fatalf("box = %d, want 2 (parcel lost in migration)", b.v.Load())
	}
	if r.SLOW().Migrations.Value() != 1 {
		t.Fatalf("migrations = %d", r.SLOW().Migrations.Value())
	}
	if got, _ := r.LocalObject(2, gid); got != b {
		t.Fatal("object not resident at new owner")
	}
}

func TestMigrateNotResident(t *testing.T) {
	r := newTestRuntime(t, 2)
	g := r.AGAS().Alloc(0, agas.KindData) // name without object
	if err := r.Migrate(g, 1); err == nil {
		t.Fatal("migrating non-resident object succeeded")
	}
	// Directory rolled back.
	owner, _ := r.AGAS().Owner(g)
	if owner != 0 {
		t.Fatalf("owner after failed migrate = %d", owner)
	}
}

func TestMigrateToSelfNoop(t *testing.T) {
	r := newTestRuntime(t, 2)
	gid := r.NewDataAt(1, "x")
	if err := r.Migrate(gid, 1); err != nil {
		t.Fatal(err)
	}
	if r.SLOW().Migrations.Value() != 0 {
		t.Fatal("self-migration counted")
	}
}

func TestAwaitWithoutSuspensionWhenReady(t *testing.T) {
	r := newTestRuntime(t, 1)
	fut := lco.NewFuture()
	fut.Set(1)
	r.Spawn(0, func(ctx *Context) {
		ctx.Await(fut)
	})
	r.Wait()
	if r.SLOW().Suspensions.Value() != 0 {
		t.Fatal("ready future caused suspension")
	}
}

func TestAwaitSuspendsAndResumes(t *testing.T) {
	// More awaiting threads than worker slots: only suspension-released
	// slots let the resolver run.
	r := New(Config{Localities: 1, WorkersPerLocality: 2})
	defer r.Shutdown()
	fut := lco.NewFuture()
	var resumed atomic.Int32
	for i := 0; i < 4; i++ {
		r.Spawn(0, func(ctx *Context) {
			ctx.Await(fut)
			resumed.Add(1)
		})
	}
	r.Spawn(0, func(ctx *Context) { fut.Set("go") })
	r.Wait()
	if resumed.Load() != 4 {
		t.Fatalf("resumed %d, want 4", resumed.Load())
	}
	if r.SLOW().Suspensions.Value() == 0 {
		t.Fatal("no suspensions recorded")
	}
}

func TestLocalParcelBypassesNetwork(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(0, struct{}{})
	r.Spawn(0, func(ctx *Context) {
		ctx.Send(parcel.New(obj, ActionNop, nil))
	})
	r.Wait()
	if r.SLOW().ParcelsLocal.Value() != 1 {
		t.Fatalf("local parcels = %d", r.SLOW().ParcelsLocal.Value())
	}
	if r.SLOW().ParcelsSent.Value() != 0 {
		t.Fatalf("remote parcels = %d", r.SLOW().ParcelsSent.Value())
	}
}

// TestCrossLocalityParcelCarriesItsArgs: a parcel sent to another locality
// of the node arrives with its argument record intact.
func TestCrossLocalityParcelCarriesItsArgs(t *testing.T) {
	r := newTestRuntime(t, 2)
	var got atomic.Value
	obj := r.NewDataAt(1, struct{}{})
	r.MustRegisterAction("test.echoargs", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		got.Store(args.String())
		return nil, args.Err()
	})
	r.Spawn(0, func(ctx *Context) {
		ctx.Send(parcel.New(obj, "test.echoargs", parcel.NewArgs().String("through the wire").Encode()))
	})
	r.Wait()
	if got.Load().(string) != "through the wire" {
		t.Fatalf("args = %v", got.Load())
	}
}

func TestNetworkLatencyIsApplied(t *testing.T) {
	slow := network.NewCrossbar(2, network.Params{
		HopLatency: 0, InjectionOverhead: 3 * time.Millisecond,
	})
	r := New(Config{Localities: 2, Net: slow})
	defer r.Shutdown()
	obj := r.NewDataAt(1, struct{}{})
	start := time.Now()
	var elapsed atomic.Int64
	r.Spawn(0, func(ctx *Context) {
		f := ctx.Call(obj, ActionNop, nil)
		ctx.Await(f)
		elapsed.Store(int64(time.Since(start)))
	})
	r.Wait()
	// Round trip: request + continuation = at least 2 injections.
	if time.Duration(elapsed.Load()) < 6*time.Millisecond {
		t.Fatalf("round trip %v, want >= 6ms", time.Duration(elapsed.Load()))
	}
}

func TestHardwareNamesBound(t *testing.T) {
	r := newTestRuntime(t, 3)
	g, err := r.AGAS().Namespace().Lookup("/hw/locality/2")
	if err != nil {
		t.Fatal(err)
	}
	if g != r.LocalityGID(2) {
		t.Fatal("namespace binding mismatch")
	}
	if g.Kind != agas.KindHardware {
		t.Fatalf("kind = %v", g.Kind)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	r := New(Config{Localities: 2})
	r.Spawn(0, func(ctx *Context) {})
	r.Shutdown()
	r.Shutdown()
}

func TestCallFreesFutureName(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	var futGone atomic.Bool
	r.Spawn(0, func(ctx *Context) {
		f := ctx.Call(obj, ActionNop, nil)
		ctx.Await(f)
	})
	r.Wait()
	// After completion, no LCO futures should linger at L0 beyond the
	// hardware object.
	futGone.Store(r.Locality(0).Store().Len() == 1)
	if !futGone.Load() {
		t.Fatalf("L0 store has %d objects, want 1 (hw only)", r.Locality(0).Store().Len())
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	r := New(Config{Localities: 4, WorkersPerLocality: 8})
	defer r.Shutdown()
	r.MustRegisterAction("test.id", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
		return args.Int64(), args.Err()
	})
	objs := make([]agas.GID, 4)
	for i := range objs {
		objs[i] = r.NewDataAt(i, struct{}{})
	}
	var sum atomic.Int64
	var wg sync.WaitGroup
	const n = 400
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		r.Spawn(i%4, func(ctx *Context) {
			defer wg.Done()
			f := ctx.Call(objs[(i+1)%4], "test.id", parcel.NewArgs().Int64(int64(i)).Encode())
			v, err := ctx.Await(f)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			sum.Add(v.(int64))
		})
	}
	wg.Wait()
	r.Wait()
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), n*(n-1)/2)
	}
}

// A split-phase call mints a one-shot reply name; once the future is
// consumed nothing on either side of the call may remember it. The bound
// is per call, so a leak of even one table entry (tens of bytes) fails.
func TestCallFromRetainsNothingPerCall(t *testing.T) {
	r := newTestRuntime(t, 2)
	obj := r.NewDataAt(1, struct{}{})
	run := func(n int) uint64 {
		for i := 0; i < n; i++ {
			if _, err := r.CallFrom(0, obj, ActionNop, nil).Get(); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const calls = 30000
	before := run(2000) // warm the pools and the scheduler
	after := run(calls)
	perCall := (float64(after) - float64(before)) / calls
	t.Logf("heap retained %.1f B per consumed call", perCall)
	if perCall > 16 {
		t.Fatalf("heap grew %.1f B per consumed call over %d calls, want <= 16", perCall, calls)
	}
}
