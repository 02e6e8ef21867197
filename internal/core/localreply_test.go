package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/network"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// lrPoint travels by an application codec; lrOpaque has none.
type (
	lrPoint  struct{ X, Y int64 }
	lrOpaque struct{ n int }
)

func init() {
	parcel.RegisterValueCodec("core.test.lrpoint", parcel.ValueCodec{
		Encode: func(v any) ([]byte, bool, error) {
			p, ok := v.(lrPoint)
			if !ok {
				return nil, false, nil
			}
			b := binary.LittleEndian.AppendUint64(nil, uint64(p.X))
			return binary.LittleEndian.AppendUint64(b, uint64(p.Y)), true, nil
		},
		Decode: func(b []byte) (any, error) {
			if len(b) != 16 {
				return nil, fmt.Errorf("lrpoint: %d bytes", len(b))
			}
			return lrPoint{int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))}, nil
		},
	})
}

// lrResults are what the action lr.result returns, by index: every kind
// of value a continuation carries, and an action error.
var lrResults = []any{
	nil, 7, int64(-3), uint64(1 << 63), 2.5, "seven", true,
	agas.GID{Home: 3, Kind: agas.KindData, Seq: 9},
	[]byte{1, 2, 3}, []byte{}, []byte(nil),
	[]float64{1.5, -2}, []float64{}, []int64{4, 5}, []int64(nil),
	lrPoint{1, -2}, lrOpaque{1},
	errors.New("lr: boom"),
}

func registerLocalReply(rt *Runtime) {
	rt.MustRegisterAction("lr.result", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
		i := args.Uint64()
		if err := args.Err(); err != nil {
			return nil, err
		}
		if err, ok := lrResults[i].(error); ok {
			return nil, err
		}
		return lrResults[i], nil
	})
}

// TestLocalReplyMatchesWireReply: a node-local call, whose reply settles
// its future in place, gives its caller exactly what a cross-node call,
// whose reply crosses the wire, does: a deep-equal value of the same
// dynamic type, or an error with the same text.
func TestLocalReplyMatchesWireReply(t *testing.T) {
	fab := transport.NewFabric(2)
	var rts [2]*Runtime
	for i := range rts {
		rts[i] = New(Config{
			Transport:          fab.Node(i),
			NodeID:             i,
			NodeLocalities:     internRanges,
			WorkersPerLocality: 2,
			Register:           registerLocalReply,
		})
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	near, far := rts[0].NewDataAt(1, struct{}{}), rts[1].NewDataAt(2, struct{}{})
	before := rts[0].SLOW().ParcelsSent.Value()
	for i, want := range lrResults {
		args := parcel.NewArgs().Uint64(uint64(i)).Encode()
		lv, lerr := rts[0].CallFrom(0, near, "lr.result", args).Get()
		wv, werr := rts[0].CallFrom(0, far, "lr.result", args).Get()
		if (lerr == nil) != (werr == nil) || lerr != nil && lerr.Error() != werr.Error() {
			t.Errorf("result %d (%T): local error %v, wire error %v", i, want, lerr, werr)
			continue
		}
		if reflect.TypeOf(lv) != reflect.TypeOf(wv) || !reflect.DeepEqual(lv, wv) {
			t.Errorf("result %d (%T): local %#v, wire %#v", i, want, lv, wv)
		}
	}
	rts[0].Wait()
	// Node 0 sent every call's request and no reply: the near replies
	// settled in place, and node 1 sent the far ones.
	if got, want := rts[0].SLOW().ParcelsSent.Value()-before, int64(2*len(lrResults)); got != want {
		t.Errorf("node 0 sent %d parcels for %d calls, want %d", got, want/2, want)
	}
	for i, rt := range rts {
		if errs := rt.Errors(); len(errs) != 0 {
			t.Errorf("node %d recorded errors: %v", i, errs)
		}
	}
}

// TestLocalReplyIsACopy: an action that returns its object's own vector,
// and changes it on the next call, does not change what an earlier caller
// received — on the caller's own locality or a neighbour's.
func TestLocalReplyIsACopy(t *testing.T) {
	r := newTestRuntime(t, 2)
	var (
		bs = []byte{1, 2, 3}
		fs = []float64{1, 2, 3}
		is = []int64{1, 2, 3}
	)
	r.MustRegisterAction("lr.state", func(_ *Context, _ any, args *parcel.Reader) (any, error) {
		kind := args.Uint64()
		switch kind {
		case 0:
			bs[0]++
			return bs, nil
		case 1:
			fs[0]++
			return fs, nil
		}
		is[0]++
		return is, nil
	})
	for _, home := range []int{0, 1} {
		obj := r.NewDataAt(home, struct{}{})
		for kind := uint64(0); kind < 3; kind++ {
			args := parcel.NewArgs().Uint64(kind).Encode()
			first, err := r.CallFrom(0, obj, "lr.state", args).Get()
			if err != nil {
				t.Fatal(err)
			}
			kept := reflect.ValueOf(first).Index(0).Interface()
			if _, err := r.CallFrom(0, obj, "lr.state", args).Get(); err != nil {
				t.Fatal(err)
			}
			if now := reflect.ValueOf(first).Index(0).Interface(); now != kept {
				t.Errorf("L%d kind %d: the first caller's value changed from %v to %v", home, kind, kept, now)
			}
		}
	}
}

// TestLocalReplyOfADirectActionCallsBackOnATask: a direct action's reply
// settles its future in place, on the goroutine that ran the action,
// which must not wait; so the future's callbacks run as one task on the
// slot's locality.
func TestLocalReplyOfADirectActionCallsBackOnATask(t *testing.T) {
	r := New(Config{Localities: 2, WorkersPerLocality: 2, Register: func(rt *Runtime) {
		rt.MarkDirect("lr.direct")
		rt.MustRegisterAction("lr.direct", func(*Context, any, *parcel.Reader) (any, error) {
			return int64(11), nil
		})
	}})
	t.Cleanup(r.Shutdown)
	obj := r.NewDataAt(1, struct{}{})
	r.Wait()
	sent, threads := r.SLOW().ParcelsSent.Value(), r.SLOW().ThreadsSpawned.Value()
	reply, fut := r.openReply(0, pickStripe(), obj, time.Time{})
	onTask := make(chan bool, 1)
	var got atomic.Value
	fut.OnReady(func(v any, err error) {
		got.Store(fmt.Sprint(v, err))
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		task := false
		for {
			f, more := frames.Next()
			task = task || strings.HasSuffix(f.Function, "locality.(*Locality).runTask")
			if !more {
				break
			}
		}
		onTask <- task
	})
	r.SendFrom(0, parcel.New(obj, "lr.direct", nil, parcel.Continuation{Target: reply, Action: ActionLCOSet}))
	if !fut.Resolved() {
		t.Fatal("the direct action's reply did not settle before SendFrom returned")
	}
	if !<-onTask {
		t.Fatal("the future's callback ran outside a locality task")
	}
	r.Wait()
	if v := got.Load(); v != "11 <nil>" {
		t.Fatalf("callback saw %v, want 11 <nil>", v)
	}
	if d := r.SLOW().ParcelsSent.Value() - sent; d != 1 {
		t.Errorf("the call sent %d parcels, want 1: the request alone", d)
	}
	if d := r.SLOW().ThreadsSpawned.Value() - threads; d != 1 {
		t.Errorf("the call dispatched %d threads, want 1: the action alone", d)
	}
	// A task is counted just after it releases the work unit Wait
	// watches; the counts settle once Shutdown has joined the workers.
	r.Shutdown()
	if l0, l1 := r.loc(0).TasksRun(), r.loc(1).TasksRun(); l0 != 1 || l1 != 0 {
		t.Fatalf("tasks run: L0 %d, L1 %d; want 1 (the callback, on the slot's locality) and 0", l0, l1)
	}
}

// TestLocalReplyKeepsModelledLatency: under a network model that charges
// for a hop between localities (E3's crossbar), a reply between two
// localities is a parcel and waits out its hop, as the request does; a
// reply to the caller's own locality still settles in place.
func TestLocalReplyKeepsModelledLatency(t *testing.T) {
	const hop = 3 * time.Millisecond
	r := New(Config{Localities: 2, Net: network.NewCrossbar(2, network.Params{InjectionOverhead: hop})})
	defer r.Shutdown()
	here, there := r.NewDataAt(0, struct{}{}), r.NewDataAt(1, struct{}{})
	r.Wait()
	for _, tc := range []struct {
		label       string
		obj         agas.GID
		sent, local int64
		delayed     bool
	}{{"L0 to L1", there, 2, 0, true}, {"L0 to L0", here, 0, 1, false}} {
		s0, l0 := r.SLOW().ParcelsSent.Value(), r.SLOW().ParcelsLocal.Value()
		start := time.Now()
		if _, err := r.CallFrom(0, tc.obj, ActionNop, nil).Get(); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		r.Wait()
		if s, l := r.SLOW().ParcelsSent.Value()-s0, r.SLOW().ParcelsLocal.Value()-l0; s != tc.sent || l != tc.local {
			t.Errorf("%s: %d parcels sent and %d local, want %d and %d", tc.label, s, l, tc.sent, tc.local)
		}
		if tc.delayed && took < 2*hop {
			t.Errorf("%s: the call took %v, under two hops of %v", tc.label, took, hop)
		}
	}
}
