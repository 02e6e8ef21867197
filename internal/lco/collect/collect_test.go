package collect

import (
	"testing"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// machine3 builds a three-node loopback-fabric machine with collect's
// actions registered, two localities per node.
func machine3(t *testing.T) []*core.Runtime {
	t.Helper()
	fabric := transport.NewFabric(3)
	ranges := []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}
	rts := make([]*core.Runtime, 3)
	for i := range rts {
		rts[i] = core.New(core.Config{
			Transport:          fabric.Node(i),
			NodeID:             i,
			NodeLocalities:     ranges,
			WorkersPerLocality: 2,
			Register:           RegisterActions,
		})
	}
	return rts
}

func shutdown(t *testing.T, rts []*core.Runtime, wantClean bool) {
	t.Helper()
	rts[0].Wait()
	for i, rt := range rts {
		rt.Shutdown()
		if errs := rt.Errors(); wantClean && len(errs) != 0 {
			t.Errorf("node %d recorded errors: %v", i, errs)
		}
	}
}

func TestReduceSingleProcess(t *testing.T) {
	rt := core.New(core.Config{Localities: 4, WorkersPerLocality: 2})
	defer rt.Shutdown()
	RegisterActions(rt)
	red, err := NewReduce(rt, 0, "sp-sum", []int{4}, core.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red.Result(0)
	for loc := 0; loc < 4; loc++ {
		if err := red.Contribute(loc, int64(loc+1)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := res.Get(); err != nil || v.(int64) != 10 {
		t.Fatalf("single-process tree reduce = %v, %v; want 10", v, err)
	}
}

func TestReduceAcrossNodes(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	// Two contributions per node: each locality contributes its index.
	red0, err := NewReduce(rts[0], 0, "rank-sum", []int{2, 2, 2}, core.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red0.Result(0)
	for node := 0; node < 3; node++ {
		red, err := AttachReduce(rts[node], "rank-sum")
		if err != nil {
			t.Fatal(err)
		}
		for loc := rts[node].NodeRange(node).Lo; loc < rts[node].NodeRange(node).Hi; loc++ {
			if err := red.Contribute(loc, int64(loc)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v, err := res.Get(); err != nil || v.(int64) != 15 {
		t.Fatalf("cross-node reduce = %v, %v; want 15 (0+..+5)", v, err)
	}
}

func TestBroadcastAcrossNodes(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	bc, err := NewBroadcast(rts[0], 0, "announce")
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe receivers on every node before the send.
	got := make([]chan any, 3)
	for node := 0; node < 3; node++ {
		b, err := AttachBroadcast(rts[node], "announce")
		if err != nil {
			t.Fatal(err)
		}
		f := b.Recv(rts[node].NodeRange(node).Lo)
		ch := make(chan any, 1)
		got[node] = ch
		f.OnReady(func(v any, err error) {
			if err != nil {
				v = err
			}
			ch <- v
		})
	}
	if err := bc.Send(0, "hello machine"); err != nil {
		t.Fatal(err)
	}
	for node, ch := range got {
		if v := <-ch; v != "hello machine" {
			t.Fatalf("node %d received %v", node, v)
		}
	}
}

func TestBarrierAcrossNodes(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	bar0, err := NewBarrier(rts[0], 0, "phase-1", []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stagger arrivals: everyone but the last arrives, the release must
	// stay unresolved, then the last arrival releases the machine.
	releases := make([]interface{ TryGet() (any, error, bool) }, 3)
	bars := []*Barrier{bar0}
	for node := 1; node < 3; node++ {
		b, err := AttachBarrier(rts[node], "phase-1")
		if err != nil {
			t.Fatal(err)
		}
		bars = append(bars, b)
	}
	for node, b := range bars {
		releases[node] = b.Released(rts[node].NodeRange(node).Lo)
	}
	for node, b := range bars {
		lo := rts[node].NodeRange(node).Lo
		b.Arrive(lo)
		if node < 2 {
			b.Arrive(lo + 1)
		}
	}
	rts[0].Wait() // drain all arrival triggers
	if _, _, ok := releases[0].TryGet(); ok {
		t.Fatal("barrier released before the last arrival")
	}
	bars[2].Arrive(rts[2].NodeRange(2).Lo + 1)
	for node, rel := range releases {
		if _, err := rel.(interface{ Get() (any, error) }).Get(); err != nil {
			t.Fatalf("node %d release: %v", node, err)
		}
	}
}

// TestReduceAppliesEachContributionOnce: every contribution is applied exactly
// once. Node 2's leaf is sized one past its two contributions, so with
// six distinct values in the tree holds unresolved, and the seventh
// resolves it to the exact sum.
func TestReduceAppliesEachContributionOnce(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	red0, err := NewReduce(rts[0], 0, "exact-sum", []int{2, 2, 3}, core.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red0.Result(0)
	var last *Reduce
	for node := 0; node < 3; node++ {
		red, err := AttachReduce(rts[node], "exact-sum")
		if err != nil {
			t.Fatal(err)
		}
		rg := rts[node].NodeRange(node)
		for loc := rg.Lo; loc < rg.Hi; loc++ {
			if err := red.Contribute(loc, int64(loc+1)); err != nil {
				t.Fatal(err)
			}
		}
		last = red
	}
	rts[0].Wait()
	if v, err, ok := res.TryGet(); ok {
		t.Fatalf("reduce resolved one contribution early: %v, %v", v, err)
	}
	if err := last.Contribute(rts[2].NodeRange(2).Lo, int64(100)); err != nil {
		t.Fatal(err)
	}
	if v, err := res.Get(); err != nil || v.(int64) != 121 {
		t.Fatalf("reduce = %v, %v; want 121 (1+..+6, then 100)", v, err)
	}
}

// TestReduceNilInitAcrossNodes: a nil init crosses the wire to every
// leaf (as the false record nil travels as) and starts each leaf and the
// root unset, so each takes its first contribution as it is: a min needs
// no identity element, and a float64 sum starts from no int64 zero.
func TestReduceNilInitAcrossNodes(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	for _, tc := range []struct {
		id, op string
		v      func(loc int) any
		want   any
	}{
		{"nil-min", core.ReduceMin, func(loc int) any { return int64(300 - loc) }, int64(295)},
		{"nil-sum", core.ReduceSum, func(loc int) any { return 0.5 * float64(loc) }, 7.5},
	} {
		red0, err := NewReduce(rts[0], 0, tc.id, []int{2, 2, 2}, tc.op, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := red0.Result(0)
		for node := 0; node < 3; node++ {
			red, err := AttachReduce(rts[node], tc.id)
			if err != nil {
				t.Fatal(err)
			}
			rg := rts[node].NodeRange(node)
			for loc := rg.Lo; loc < rg.Hi; loc++ {
				if err := red.Contribute(loc, tc.v(loc)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if v, err := res.Get(); err != nil || v != tc.want {
			t.Fatalf("%s from nil = %v (%T), %v; want %v (%T)", tc.op, v, v, err, tc.want, tc.want)
		}
	}
}

// TestInstallRejectsBadReduce: an install parcel naming an unknown
// reducer or carrying an init no reduction starts from — any peer can
// send one — fails that install and leaves the node serving; NewReduce
// refuses the same values with an error.
func TestInstallRejectsBadReduce(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	root := rts[0].NewDistReduceAt(0, 1, core.ReduceSum, int64(0))
	for _, tc := range []struct {
		id, op string
		init   any
	}{
		{"bad-string", core.ReduceSum, "0"},
		{"bad-uint64", core.ReduceMax, uint64(7)},
		{"bad-bool", core.ReduceSum, true},
		{"bad-op", "no.such.op", int64(0)},
	} {
		initRaw, err := parcel.EncodeAny(tc.init)
		if err != nil {
			t.Fatal(err)
		}
		args := parcel.NewArgs().String(tc.id).String("reduce").GID(root).
			Int64(2).String(tc.op).Bytes(initRaw).Encode()
		fut := rts[0].CallFrom(0, rts[0].LocalityGID(rts[1].NodeRange(1).Lo), ActionInstall, args)
		if _, err := fut.Get(); err == nil {
			t.Errorf("%s: install of a %s from %T succeeded", tc.id, tc.op, tc.init)
		}
		if _, err := AttachReduce(rts[1], tc.id); err == nil {
			t.Errorf("%s: a failed install left a leaf bound", tc.id)
		}
		if _, err := NewReduce(rts[0], 0, tc.id, []int{1, 1, 1}, tc.op, tc.init); err == nil {
			t.Errorf("%s: NewReduce of a %s from %T succeeded", tc.id, tc.op, tc.init)
		}
	}
	rts[0].FreeObject(root)
	// Node 1 is still up: a good reduction across every node completes.
	red0, err := NewReduce(rts[0], 0, "after-bad", []int{1, 1, 1}, core.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red0.Result(0)
	for node := 0; node < 3; node++ {
		red, err := AttachReduce(rts[node], "after-bad")
		if err != nil {
			t.Fatal(err)
		}
		if err := red.Contribute(rts[node].NodeRange(node).Lo, int64(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := res.Get(); err != nil || v != int64(3000) {
		t.Fatalf("reduce after the bad installs = %v, %v; want 3000", v, err)
	}
}

func TestAttachUnknownCollective(t *testing.T) {
	rt := core.New(core.Config{Localities: 1})
	defer rt.Shutdown()
	RegisterActions(rt)
	if _, err := AttachReduce(rt, "nope"); err == nil {
		t.Fatal("attach to unknown collective succeeded")
	}
	if _, err := NewReduce(rt, 0, "empty", []int{0}, core.ReduceSum, int64(0)); err == nil {
		t.Fatal("reduce with no contributions accepted")
	}
	if _, err := NewBarrier(rt, 0, "empty-b", []int{0}); err == nil {
		t.Fatal("barrier with no participants accepted")
	}
}

func TestFreeTearsTheCollectiveDown(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	red0, err := NewReduce(rts[0], 0, "freed-sum", []int{2, 2, 2}, core.ReduceSum, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := red0.Result(0)
	for node := 0; node < 3; node++ {
		red, err := AttachReduce(rts[node], "freed-sum")
		if err != nil {
			t.Fatal(err)
		}
		rg := rts[node].NodeRange(node)
		for loc := rg.Lo; loc < rg.Hi; loc++ {
			if err := red.Contribute(loc, int64(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v, err := res.Get(); err != nil || v.(int64) != 6 {
		t.Fatalf("reduce = %v, %v; want 6", v, err)
	}
	if err := red0.Free(0); err != nil {
		t.Fatalf("free: %v", err)
	}
	// Every node's namespace entries and leaf objects must be gone.
	for node := 0; node < 3; node++ {
		if _, err := AttachReduce(rts[node], "freed-sum"); err == nil {
			t.Fatalf("node %d still attaches to a freed collective", node)
		}
	}
	if _, ok := rts[0].LocalObject(0, red0.Root); ok {
		t.Fatal("root object survived Free")
	}
	// Freeing twice is a safe no-op.
	if err := red0.Free(0); err != nil {
		t.Fatalf("double free: %v", err)
	}
	// A fresh collective may reuse the ID after teardown.
	if _, err := NewReduce(rts[0], 0, "freed-sum", []int{2, 2, 2}, core.ReduceSum, int64(0)); err != nil {
		t.Fatalf("ID reuse after free: %v", err)
	}
}

func TestBarrierAndBroadcastFree(t *testing.T) {
	rts := machine3(t)
	defer shutdown(t, rts, true)
	bar, err := NewBarrier(rts[0], 0, "freed-bar", []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := bar.Released(0)
	for node := 0; node < 3; node++ {
		b, err := AttachBarrier(rts[node], "freed-bar")
		if err != nil {
			t.Fatal(err)
		}
		b.Arrive(rts[node].NodeRange(node).Lo)
	}
	if _, err := rel.Get(); err != nil {
		t.Fatal(err)
	}
	if err := bar.Free(0); err != nil {
		t.Fatalf("barrier free: %v", err)
	}
	if _, err := AttachBarrier(rts[1], "freed-bar"); err == nil {
		t.Fatal("freed barrier still attachable")
	}

	bc, err := NewBroadcast(rts[0], 0, "freed-bc")
	if err != nil {
		t.Fatal(err)
	}
	recv := bc.Recv(0)
	if err := bc.Send(0, int64(3)); err != nil {
		t.Fatal(err)
	}
	if v, err := recv.Get(); err != nil || v.(int64) != 3 {
		t.Fatalf("recv = %v, %v", v, err)
	}
	if err := bc.Free(0); err != nil {
		t.Fatalf("broadcast free: %v", err)
	}
	if _, err := AttachBroadcast(rts[2], "freed-bc"); err == nil {
		t.Fatal("freed broadcast still attachable")
	}
}
