package core

import (
	"bytes"
	"testing"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// FuzzFrameDecode decodes arbitrary bytes the way node 1 of a running
// two-node machine decodes a frame from node 0: against the receive table
// node 1's onHello built from node 0's hello, with the width and shard
// onFrame passes. internal/wire fuzzes the format against fixed tables;
// this target fuzzes the seam the runtime adds, where a table position
// becomes a local dispatch ID. Node 1 registers a decoy first (see
// startInternPair), so the two nodes' IDs for a shared name differ. A
// decoded parcel's ID must be the one node 1's registry gives its name,
// and the parcel re-encoded with node 0's announced table must decode to
// the same parcel, carrying an ID exactly when its name was announced.
func FuzzFrameDecode(f *testing.F) {
	fab := transport.NewFabric(2)
	rts := startInternPair(f, [2]transport.Transport{fab.Node(0), fab.Node(1)})
	f.Cleanup(func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	})
	// A hello is queued ahead of its sender's frames, so once a call from
	// node 0 is answered node 1 holds node 0's table.
	dest := rts[1].NewDataAt(2, int64(1))
	if _, err := rts[0].CallFrom(0, dest, "intern.echo", nil).Get(); err != nil {
		f.Fatalf("call from node 0: %v", err)
	}
	// Registered after the hellos went out: known on both nodes, announced
	// by neither.
	for _, rt := range rts {
		rt.MustRegisterAction("intern.late", func(*Context, any, *parcel.Reader) (any, error) { return nil, nil })
	}
	send := rts[0].dist.ourTable
	recv := rts[1].dist.peer(0).table.Load()
	if recv == nil {
		f.Fatal("node 1 holds no table for node 0 after answering its call")
	}
	env := wire.Env{Table: recv, Width: rts[1].dist.lmap.Localities(), Shard: 0 % parcel.Shards}
	localAID := func(name string) uint32 {
		_, aid, _ := rts[1].acts.lookup(name) // parcel.NoAID when not registered
		return aid
	}

	// Seeds: a parcel naming each announced action, whole; then one frame
	// of every kind node 0 sends, and a parcel for each other way a name
	// travels (traced, spelled out before the hello, registered late,
	// registered nowhere), each cut at every length and followed by one
	// stray byte.
	cont := []parcel.Continuation{{Target: agas.GID{Home: 0, Kind: agas.KindLCO, Seq: 9}, Action: ActionLCOSet}}
	newParcel := func(action string) *parcel.Parcel {
		return &parcel.Parcel{ID: 77, Dest: dest, Action: action, AID: parcel.NoAID, Args: []byte{1, 2, 3}, Cont: cont, Src: 1, Hops: 1}
	}
	for _, name := range rts[0].acts.snapshot().names {
		f.Add(wire.AppendParcel(nil, newParcel(name), send))
	}
	traced := newParcel("intern.echo")
	traced.Trace = parcel.TraceCtx{ID: 0xfeed, Span: 0xbeef, Flags: parcel.TraceSampled}
	for _, frame := range [][]byte{
		wire.AppendParcel(nil, traced, send),
		wire.AppendParcel(nil, newParcel("intern.echo"), nil), // sent before node 1's hello arrived
		wire.AppendParcel(nil, newParcel("intern.late"), send),
		wire.AppendParcel(nil, newParcel("intern.nowhere"), send),
		wire.EncodeHalt(),
		wire.EncodeDrain(7),
		wire.EncodeDrainReply(7, 0, 3, 3, 0xfeed),
		wire.EncodeGoodbye(3, 3),
		wire.EncodeMoved(dest, 3, 2),
		wire.EncodeBeat(0xfeed),
		wire.EncodeDead(1),
		wire.EncodeLoad([]wire.LoadEntry{{Loc: 2, Score: 1}, {Loc: 3, Score: 0.5}}),
	} {
		for cut := 0; cut <= len(frame); cut++ {
			f.Add(frame[:cut])
		}
		f.Add(append(frame[:len(frame):len(frame)], 0))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Decode(data, env)
		if err != nil || m.Kind != wire.Parcel {
			return
		}
		defer parcel.Release(m.P)
		p := m.P
		if p.AID != parcel.NoAID && p.AID != localAID(p.Action) {
			t.Fatalf("%q decoded with dispatch ID %d; node 1 registered it as %d", p.Action, p.AID, localAID(p.Action))
		}
		m2, err := wire.Decode(wire.AppendParcel(nil, p, send), env)
		if err != nil {
			t.Fatalf("%q did not survive re-encoding with node 0's table: %v", p.Action, err)
		}
		defer parcel.Release(m2.P)
		q := m2.P
		if p.ID != q.ID || p.Dest != q.Dest || p.Action != q.Action || !bytes.Equal(p.Args, q.Args) ||
			len(p.Cont) != len(q.Cont) || p.Src != q.Src || p.Hops != q.Hops || p.Trace != q.Trace {
			t.Fatalf("parcel did not survive re-encoding: %+v then %+v", p, q)
		}
		for i := range p.Cont {
			if p.Cont[i] != q.Cont[i] {
				t.Fatalf("continuation %d did not survive re-encoding: %+v then %+v", i, p.Cont[i], q.Cont[i])
			}
		}
		want := parcel.NoAID
		if _, announced := send.IDOf(q.Action); announced {
			want = localAID(q.Action)
		}
		if q.AID != want {
			t.Fatalf("%q re-encoded with node 0's table decoded with dispatch ID %d, want %d", q.Action, q.AID, want)
		}
	})
}
