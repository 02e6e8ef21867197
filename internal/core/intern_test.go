package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestOversizedActionNameFailsGracefully: an action name one byte longer
// than the wire carries can never be registered. Sent to another locality
// of the same node or across nodes, it fails its sender with the one
// unknown-action error, not an encoder panic, and Wait returns.
func TestOversizedActionNameFailsGracefully(t *testing.T) {
	long := string(make([]byte, parcel.MaxInternString+1))
	check := func(t *testing.T, rt *Runtime, g agas.GID) {
		t.Helper()
		rt.SendFrom(0, parcel.New(g, long, nil))
		rt.Wait()
		errs := rt.Errors()
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unknown action") {
			t.Fatalf("got %d errors, want the one unknown-action failure", len(errs))
		}
		if n := len(errs[0].Error()); n >= 512 {
			t.Fatalf("the recorded unknown-action failure is %d bytes long", n)
		}
		_, err := rt.CallFrom(0, g, long, nil).Get()
		if err == nil || !strings.Contains(err.Error(), "unknown action") {
			t.Fatalf("call naming the oversized action: %v, want the unknown-action failure", err)
		}
		// The error quotes a bounded prefix of the name: 64 NUL bytes
		// escape to 256 bytes, plus the fixed text and the length.
		if n := len(err.Error()); n >= 4*unknownActionQuote+64 {
			t.Fatalf("the unknown-action error is %d bytes long", n)
		}
		if want := fmt.Sprintf("(%d bytes)", len(long)); !strings.Contains(err.Error(), want) {
			t.Fatalf("the unknown-action error %v does not give the name's length %s", err, want)
		}
		rt.Wait()
	}
	t.Run("local", func(t *testing.T) {
		rt := New(Config{Localities: 2})
		defer rt.Shutdown()
		check(t, rt, rt.NewDataAt(1, int64(1)))
	})
	t.Run("cross-node", func(t *testing.T) {
		fab := transport.NewFabric(2)
		rts := startInternPair(t, [2]transport.Transport{fab.Node(0), fab.Node(1)})
		defer func() {
			for _, rt := range rts {
				rt.Shutdown()
			}
		}()
		check(t, rts[0], rts[1].NewDataAt(2, int64(1)))
		if errs := rts[1].Errors(); len(errs) != 0 {
			t.Fatalf("the parcel reached node 1: %d errors there", len(errs))
		}
	})
}

// internRanges partitions four localities across two nodes.
var internRanges = []agas.Range{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}

// startInternPair builds a two-node machine over the given transports.
// Node 1 registers a decoy action first, so the two nodes' dense action
// IDs for the shared action differ — the peer-table position mapping must
// reconcile them.
func startInternPair(t testing.TB, trs [2]transport.Transport) [2]*Runtime {
	t.Helper()
	var rts [2]*Runtime
	for i := 0; i < 2; i++ {
		i := i
		rts[i] = New(Config{
			Transport:          trs[i],
			NodeID:             i,
			NodeLocalities:     internRanges,
			WorkersPerLocality: 2,
			Register: func(rt *Runtime) {
				if i == 1 {
					rt.MustRegisterAction("intern.decoy", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
						return nil, nil
					})
				}
				rt.MustRegisterAction("intern.echo", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
					n, ok := target.(int64)
					if !ok {
						return nil, fmt.Errorf("intern.echo on %T", target)
					}
					return n, nil
				})
			},
		})
	}
	return rts
}

// exerciseInternPair drives calls in both directions and checks results.
func exerciseInternPair(t *testing.T, rts [2]*Runtime) {
	t.Helper()
	a := rts[0].NewDataAt(0, int64(7))
	b := rts[1].NewDataAt(2, int64(42))
	for round := 0; round < 3; round++ {
		v, err := rts[0].CallFrom(0, b, "intern.echo", nil).Get()
		if err != nil || v.(int64) != 42 {
			t.Fatalf("round %d: 0->1 call: %v %v", round, v, err)
		}
		v, err = rts[1].CallFrom(2, a, "intern.echo", nil).Get()
		if err != nil || v.(int64) != 7 {
			t.Fatalf("round %d: 1->0 call: %v %v", round, v, err)
		}
	}
	for _, rt := range rts {
		rt.Wait()
		for _, err := range rt.Errors() {
			t.Errorf("runtime error: %v", err)
		}
	}
}

// TestInterningEngages: two nodes end up naming actions by table position
// in both directions, with differing dense IDs mapped through the
// exchanged tables. px.wire.interned_sent counts exactly the parcel frames
// that carry a table position: every action here is announced.
func TestInterningEngages(t *testing.T) {
	fab := transport.NewFabric(2)
	var wires [2]*transport.Faulty
	var onWire [2]atomic.Int64
	for i := range wires {
		wires[i] = &transport.Faulty{Transport: fab.Node(i)}
		wires[i].SetRule(func(_ int, frame []byte) transport.Fate {
			const ref = 1 + 8 + agas.GIDSize // kind, id, dest
			if frame[0] == wire.Parcel && binary.LittleEndian.Uint16(frame[ref:]) == parcel.InternSentinel {
				onWire[i].Add(1)
			}
			return transport.Pass
		})
	}
	rts := startInternPair(t, [2]transport.Transport{wires[0], wires[1]})
	exerciseInternPair(t, rts)
	var sent [2]int64
	for i, rt := range rts {
		sent[i] = int64(rt.Metrics().Snapshot()["px.wire.interned_sent"])
		rt.Shutdown()
	}
	for i := range rts {
		if sent[i] == 0 || sent[i] != onWire[i].Load() {
			t.Fatalf("node %d: interned_sent %d, %d parcel frames carried a table position", i, sent[i], onWire[i].Load())
		}
	}
}

// TestInterningTCPEngages: over TCP, peers converge on interned frames
// once the handshake hellos have crossed.
func TestInterningTCPEngages(t *testing.T) {
	var tcps [2]*transport.TCP
	addrs := make([]string, 2)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self: i, Listen: "127.0.0.1:0", Peers: make([]string, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tr
		addrs[i] = tr.Addr().String()
	}
	for _, tr := range tcps {
		tr.SetPeers(addrs)
	}
	rts := startInternPair(t, [2]transport.Transport{tcps[0], tcps[1]})
	exerciseInternPair(t, rts)
	// The first parcel in each direction may precede the peer's hello
	// (string fallback); by the end of three rounds interning must have
	// engaged somewhere.
	total := rts[0].dist.internedSent.Load() + rts[1].dist.internedSent.Load()
	for _, rt := range rts {
		rt.Shutdown()
	}
	if total == 0 {
		t.Fatal("interning never engaged over TCP")
	}
}

// TestLateRegisteredActionFallsBackToString: an action registered after
// the transport started sits outside the announced table prefix; parcels
// naming it are spelled out inside interned frames and still dispatch.
func TestLateRegisteredActionFallsBackToString(t *testing.T) {
	fab := transport.NewFabric(2)
	rts := startInternPair(t, [2]transport.Transport{fab.Node(0), fab.Node(1)})
	for _, rt := range rts {
		rt.MustRegisterAction("intern.late", func(ctx *Context, target any, args *parcel.Reader) (any, error) {
			return target.(int64) * 2, nil
		})
	}
	b := rts[1].NewDataAt(2, int64(21))
	// Warm the hello exchange with an interned-capable call first.
	if v, err := rts[0].CallFrom(0, b, "intern.echo", nil).Get(); err != nil || v.(int64) != 21 {
		t.Fatalf("warm call: %v %v", v, err)
	}
	v, err := rts[0].CallFrom(0, b, "intern.late", nil).Get()
	if err != nil || v.(int64) != 42 {
		t.Fatalf("late-action call: %v %v", v, err)
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
}
