package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
	"repro/internal/transport"
)

// frameTestTables returns the two halves of one announced action table:
// what a sender encodes fParcel frames against and what the receiver of
// its hello decodes them against.
func frameTestTables() (send, recv parcel.Table) {
	reg := newActionRegistry()
	registerBuiltins(reg)
	reg.register("app.frob", func(*Context, any, *parcel.Reader) (any, error) { return nil, nil })
	set := reg.snapshot()
	rt := &recvTable{names: set.names, aids: make([]uint32, len(set.names))}
	for i := range rt.aids {
		rt.aids[i] = uint32(i + 1)
	}
	return &senderTable{set: set, n: len(set.names)}, rt
}

// frameTestWidth is the machine width the decoders are told about.
const frameTestWidth = 8

// reencode renders a decoded message back into a frame of the given kind
// with the encoders the runtime sends with. It fails the test for a kind
// it does not know: a new kind needs a case here.
func reencode(t testing.TB, kind byte, m frameMsg, send parcel.Table) []byte {
	t.Helper()
	switch kind {
	case fParcel:
		return appendParcel(nil, m.p, send)
	case fHalt:
		return []byte{kind}
	case fDrain, fBeat:
		return encodeID(kind, m.id)
	case fDrainReply:
		return encodeDrainReply(m.id, m.pending, m.sent, m.recv, m.fp)
	case fGoodbye:
		return encodeGoodbye(m.sent, m.recv)
	case fMoved:
		return encodeMoved(m.g, m.loc, m.gen)
	case fDead:
		return encodeDead(m.node)
	case fLoad:
		return encodeLoad(m.loads)
	}
	t.Fatalf("no re-encoder for frame kind %d", kind)
	return nil
}

// sameMsg compares two decoded messages field by field; parcels by what
// the wire carries (AID is the receiver's own cache of Action), byte runs
// by content.
func sameMsg(a, b frameMsg) bool {
	if (a.p == nil) != (b.p == nil) {
		return false
	}
	if a.p != nil {
		p, q := a.p, b.p
		if p.ID != q.ID || p.Dest != q.Dest || p.Action != q.Action ||
			!bytes.Equal(p.Args, q.Args) || len(p.Cont) != len(q.Cont) ||
			p.Src != q.Src || p.Hops != q.Hops || p.Trace != q.Trace {
			return false
		}
		for i := range p.Cont {
			if p.Cont[i] != q.Cont[i] {
				return false
			}
		}
	}
	if len(a.loads) != len(b.loads) {
		return false
	}
	for i := range a.loads {
		if a.loads[i] != b.loads[i] {
			return false
		}
	}
	a.p, b.p, a.loads, b.loads = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// frameSample is one well-formed frame and what it must decode to.
type frameSample struct {
	label string
	frame []byte
	want  frameMsg
	// traced marks a frame ending in the trace trailer: cutting exactly the
	// trailer off leaves a valid untraced frame, the one truncation that
	// must be accepted.
	traced bool
	// spelled marks a parcel encoded with no table, as a node sends before
	// its peer's hello arrives: it re-encodes with no table too.
	spelled bool
}

func frameSamples(send parcel.Table) []frameSample {
	g := agas.GID{Home: 3, Kind: agas.KindLCO, Seq: 0xABCD}
	tc := parcel.TraceCtx{ID: 0xfeed, Span: 0xbeef, Flags: parcel.TraceSampled}
	cont := []parcel.Continuation{{Target: agas.GID{Home: 1, Kind: agas.KindLCO, Seq: 9}, Action: ActionLCOSet}}
	// One parcel per action-reference shape: every name spelled out, as
	// sent before the peer's hello, announced (a table position), and
	// unannounced (spelled out).
	known := &parcel.Parcel{ID: 77, Dest: g, Action: "app.frob", AID: parcel.NoAID, Args: []byte{1, 2, 3}, Cont: cont, Src: 2, Hops: 1}
	late := &parcel.Parcel{ID: 78, Dest: g, Action: "app.registered.late", AID: parcel.NoAID, Args: nil, Src: 5}
	traced := *known
	traced.Trace = tc
	aidOf := func(name string) uint32 {
		id, ok := send.IDOf(name)
		if !ok {
			return parcel.NoAID
		}
		return id + 1
	}
	// A decode resolves table positions to dispatch IDs.
	resolved := func(p parcel.Parcel) *parcel.Parcel {
		p.AID = aidOf(p.Action)
		return &p
	}
	loads := []loadEntry{{loc: 0, score: 0}, {loc: 5, score: 12.5}, {loc: frameTestWidth - 1, score: math.MaxFloat64}}
	return []frameSample{
		{label: "parcel", frame: appendParcel(nil, known, nil), want: frameMsg{p: known}, spelled: true},
		{label: "parcel, traced", frame: appendParcel(nil, &traced, nil), want: frameMsg{p: &traced}, traced: true, spelled: true},
		{label: "parcel, announced actions", frame: appendParcel(nil, known, send), want: frameMsg{p: resolved(*known)}},
		{label: "parcel, unannounced action", frame: appendParcel(nil, late, send), want: frameMsg{p: resolved(*late)}},
		{label: "parcel, announced actions, traced", frame: appendParcel(nil, &traced, send), want: frameMsg{p: resolved(traced)}, traced: true},
		{label: "halt", frame: []byte{fHalt}},
		{label: "drain", frame: encodeID(fDrain, 42), want: frameMsg{id: 42}},
		{label: "drain reply", frame: encodeDrainReply(42, -3, 100, 99, 0xf00d),
			want: frameMsg{id: 42, pending: -3, sent: 100, recv: 99, fp: 0xf00d}},
		{label: "goodbye", frame: encodeGoodbye(7, 8), want: frameMsg{sent: 7, recv: 8}},
		{label: "moved hint", frame: encodeMoved(g, 6, 9), want: frameMsg{g: g, loc: 6, gen: 9}},
		{label: "beat", frame: encodeID(fBeat, 0xdeadbeefcafef00d), want: frameMsg{id: 0xdeadbeefcafef00d}},
		{label: "dead", frame: encodeDead(7), want: frameMsg{node: 7}},
		{label: "load", frame: encodeLoad(loads), want: frameMsg{loads: loads}},
	}
}

// TestFrameKindsListed: every kind constant has a complete row in the
// listing, under the byte value the wire format fixes for it, and the
// layout tests below have a sample of it.
func TestFrameKindsListed(t *testing.T) {
	wire := []string{1: "fParcel", "fDrain", "fDrainReply", "fGoodbye", "fHalt", "fMoved",
		"fBeat", "fDead", "fLoad"}
	if len(wire) != int(frameKindEnd) {
		t.Fatalf("%d kind constants, %d pinned wire values", frameKindEnd-1, len(wire)-1)
	}
	send, _ := frameTestTables()
	sampled := make(map[byte]bool)
	for _, s := range frameSamples(send) {
		sampled[s.frame[0]] = true
	}
	for k := byte(1); k < frameKindEnd; k++ {
		row := kindOf(k)
		if row == nil || row.decode == nil || row.name == "" || row.layout == "" {
			t.Errorf("frame kind %d has no complete row in frameKinds", k)
			continue
		}
		if row.name != wire[k] {
			t.Errorf("frame kind %d is %s, the wire format says %s", k, row.name, wire[k])
		}
		if !sampled[k] {
			t.Errorf("%s has no sample in frameSamples", row.name)
		}
	}
	for _, k := range []byte{0, frameKindEnd, 0xff} {
		if kindOf(k) != nil {
			t.Errorf("byte %d is listed as a frame kind", k)
		}
	}
}

// TestFrameLayouts holds every kind to its layout: a well-formed frame
// decodes to exactly its fields and re-encodes to exactly its bytes, every
// truncation is rejected, and so is one byte too many.
func TestFrameLayouts(t *testing.T) {
	send, recv := frameTestTables()
	env := frameEnv{tbl: recv, width: frameTestWidth}
	for _, s := range frameSamples(send) {
		kind, body := s.frame[0], s.frame[1:]
		row := kindOf(kind)
		t.Run(row.name+"/"+s.label, func(t *testing.T) {
			got, err := row.decode(body, env)
			if err != nil {
				t.Fatalf("well-formed frame rejected: %v", err)
			}
			if !sameMsg(got, s.want) {
				t.Fatalf("decoded %+v (parcel %v), want %+v (parcel %v)", got, got.p, s.want, s.want.p)
			}
			if got.p != nil && got.p.AID != s.want.p.AID {
				t.Fatalf("decoded parcel dispatches by ID %d, want %d", got.p.AID, s.want.p.AID)
			}
			enc := send
			if s.spelled {
				enc = nil
			}
			if re := reencode(t, kind, got, enc); !bytes.Equal(re, s.frame) {
				t.Fatalf("re-encoded to % x, want % x", re, s.frame)
			}
			parcel.Release(got.p)
			for cut := 0; cut < len(body); cut++ {
				m, err := row.decode(body[:cut], env)
				parcel.Release(m.p)
				switch {
				case s.traced && cut == len(body)-parcel.TraceWireSize:
					if err != nil {
						t.Fatalf("frame without its trailer rejected: %v", err)
					}
				case err == nil:
					t.Fatalf("truncation to %d of %d body bytes accepted", cut, len(body))
				}
			}
			if m, err := row.decode(append(body[:len(body):len(body)], 0), env); err == nil {
				parcel.Release(m.p)
				t.Fatal("one trailing byte accepted")
			}
		})
	}
}

// goldenFrames pins the hello v8 wire: committed bytes for at least one
// frame of every kind, keyed by frameSamples label. A layout change shows
// here as a changed literal, which is the prompt to bump helloVersion.
var goldenFrames = map[string]string{
	"parcel": "01" + "4d00000000000000" + // kind, id
		"0300000003000000cdab000000000000" + // dest
		"0800" + "6170702e66726f62" + // action: "app.frob" spelled out
		"03000000" + "010203" + // args
		"0100" + "0100000003000000" + "0900000000000000" + // one continuation: target
		"0a00" + "70782e6c636f2e736574" + // "px.lco.set" spelled out
		"02000000" + "01000000", // src, hops
	"parcel, announced actions": "01" + "4d00000000000000" +
		"0300000003000000cdab000000000000" +
		"ffff" + "08000000" + // "app.frob" at table position 8
		"03000000" + "010203" +
		"0100" + "0100000003000000" + "0900000000000000" +
		"ffff" + "00000000" + // "px.lco.set" at position 0
		"02000000" + "01000000",
	"drain":       "02" + "2a00000000000000",
	"drain reply": "03" + "2a00000000000000" + "fdffffffffffffff" + "6400000000000000" + "6300000000000000" + "0df0000000000000",
	"goodbye":     "04" + "0700000000000000" + "0800000000000000",
	"halt":        "05",
	"moved hint":  "06" + "0300000003000000cdab000000000000" + "06000000" + "0900000000000000",
	"beat":        "07" + "0df0fecaefbeadde",
	"dead":        "08" + "0700",
	"load": "09" + "0300" + "00000000" + "0000000000000000" + "05000000" + "0000000000002940" +
		"07000000" + "ffffffffffffef7f",
}

// TestFrameGolden holds the encoders and decoders to goldenFrames both
// ways: each sample encodes to its committed bytes, and the committed
// bytes decode to the sample's value. Hellos, with and without a member
// section, are held the same way.
func TestFrameGolden(t *testing.T) {
	send, recv := frameTestTables()
	env := frameEnv{tbl: recv, width: frameTestWidth}
	pinned := make(map[byte]bool)
	matched := 0
	for _, s := range frameSamples(send) {
		golden, ok := goldenFrames[s.label]
		if !ok {
			continue
		}
		matched++
		if got := hex.EncodeToString(s.frame); got != golden {
			t.Errorf("%s encodes to\n%s\nwant\n%s", s.label, got, golden)
		}
		b, _ := hex.DecodeString(golden)
		row := kindOf(b[0])
		if row == nil {
			t.Errorf("%s: golden bytes open with kind %d, which names no kind", s.label, b[0])
			continue
		}
		m, err := row.decode(b[1:], env)
		if err != nil || !sameMsg(m, s.want) || (m.p != nil && m.p.AID != s.want.p.AID) {
			t.Errorf("%s: golden bytes decode to %+v (parcel %v, %v), want %+v (parcel %v)", s.label, m, m.p, err, s.want, s.want.p)
		}
		parcel.Release(m.p)
		pinned[b[0]] = true
	}
	if matched != len(goldenFrames) {
		t.Errorf("%d golden frames name no sample", len(goldenFrames)-matched)
	}
	for k := byte(1); k < frameKindEnd; k++ {
		if !pinned[k] {
			t.Errorf("%s has no golden bytes", kindOf(k).name)
		}
	}
	for _, h := range []struct {
		label, golden string
		names         []string
		mh            *memberHello
	}{
		{"hello", "08" + "00" + "02000000" + "0a00" + "70782e6c636f2e736574" + "0800" + "6170702e66726f62",
			[]string{"px.lco.set", "app.frob"}, nil},
		{"member hello", "08" + "01" + "01000000" + "0a00" + "70782e6c636f2e736574" +
			"0300" + "0c000000" + "10000000" + "0e00" + "3132372e302e302e313a39393939",
			[]string{"px.lco.set"}, &memberHello{node: 3, lo: 12, hi: 16, addr: "127.0.0.1:9999"}},
	} {
		if got := hex.EncodeToString(encodeHello(h.names, h.mh)); got != h.golden {
			t.Errorf("%s encodes to\n%s\nwant\n%s", h.label, got, h.golden)
		}
		b, _ := hex.DecodeString(h.golden)
		names, mh, err := parseHello(b)
		if err != nil || !reflect.DeepEqual(names, h.names) || !reflect.DeepEqual(mh, h.mh) {
			t.Errorf("%s: golden bytes decode to %q %+v (%v), want %q %+v", h.label, names, mh, err, h.names, h.mh)
		}
	}
}

// TestFrameFieldBounds: values a layout can spell but no correct peer
// sends.
func TestFrameFieldBounds(t *testing.T) {
	env := frameEnv{width: frameTestWidth}
	reject := func(label string, frame []byte) {
		t.Helper()
		if _, err := kindOf(frame[0]).decode(frame[1:], env); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
	reject("load report for a locality outside the machine", encodeLoad([]loadEntry{{loc: 1, score: 1}, {loc: frameTestWidth, score: 1}}))
	reject("load report with a NaN score", encodeLoad([]loadEntry{{loc: 1, score: math.NaN()}}))
	reject("load report with an infinite score", encodeLoad([]loadEntry{{loc: 1, score: math.Inf(1)}}))
	reject("load report with a negative score", encodeLoad([]loadEntry{{loc: 1, score: -1}}))
	reject("empty load report", []byte{fLoad, 0, 0})
	g := agas.GID{Home: 3, Kind: agas.KindData, Seq: 99}
	send, _ := frameTestTables()
	reject("a hello v6 peer's migrate frame, read as a beat", v6Migrate(g))
	reject("a hello v7 peer's interned parcel, read as a beat", v7InternedParcel(g, send))
	reject("parcel naming a table position, without the sender's table",
		appendParcel(nil, parcel.New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 1}, "app.frob", nil), send))
}

// v6Migrate is what a hello v6 peer sent to install a migrating object:
// kind 7, then u64 xid, gid, u32 to, u64 gen and a value record. Under
// hello v7 kind 7 was its interned parcel, and since hello v8 it is fBeat.
func v6Migrate(g agas.GID) []byte {
	b := g.Encode(binary.LittleEndian.AppendUint64([]byte{7}, ^uint64(0)))
	b = binary.LittleEndian.AppendUint32(b, ^uint32(0))
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	return append(b, 0xff)
}

// v7InternedParcel is what a hello v7 peer sent for a parcel once it held
// the receiver's hello: kind 7, then the parcel with its actions as table
// positions. Since hello v8 kind 7 is fBeat, and fParcel carries this
// body.
func v7InternedParcel(g agas.GID, send parcel.Table) []byte {
	f := appendParcel(nil, parcel.New(g, "app.frob", []byte{1}), send)
	f[0] = 7
	return f
}

// FuzzFrameDecode feeds every decoder of socket input arbitrary bytes: the
// input as a frame (kind byte first, decoded through the listing exactly as
// onFrame does) and as a handshake hello. Nothing may panic, and whatever
// is accepted must re-encode to bytes that decode to the same message.
func FuzzFrameDecode(f *testing.F) {
	send, recv := frameTestTables()
	env := frameEnv{tbl: recv, width: frameTestWidth}
	for _, s := range frameSamples(send) {
		f.Add(s.frame)
		f.Add(s.frame[:len(s.frame)/2])
		f.Add(append(s.frame[:len(s.frame):len(s.frame)], 0))
	}
	g := agas.GID{Home: 3, Kind: agas.KindData, Seq: 99}
	// What a hello v6 peer sent under bytes 7–14: its four migration kinds
	// (bytes 7–9 now name fBeat, fDead and fLoad), then its interned
	// parcel, fBeat, fDead and fLoad, under bytes that now name no kind.
	v6Parcel := v7InternedParcel(g, send)
	v6Parcel[0] = 11
	v6DirUpdate := g.Encode(binary.LittleEndian.AppendUint64([]byte{9}, 8))
	v6DirUpdate = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(v6DirUpdate, 1), 5)
	for _, old := range [][]byte{
		v6Migrate(g),
		append(binary.LittleEndian.AppendUint64([]byte{8}, 7), 1, 0, 0),
		v6DirUpdate,
		append(binary.LittleEndian.AppendUint64([]byte{10}, 8), 0, 5, 0, 's', 't', 'a', 'l', 'e'),
		v6Parcel,
		encodeID(12, 0xdeadbeefcafef00d),
		{13, 7, 0},
		{14, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x29, 0x40},
	} {
		f.Add(old)
		f.Add(old[:len(old)/2])
		f.Add(append(old[:len(old):len(old)], 0))
	}
	// What a hello v7 peer sent under bytes 1 and 7–10: fParcel with every
	// name spelled out (the bytes fParcel still carries before the peer's
	// hello), then its interned parcel, fBeat, fDead and fLoad, under
	// bytes that now name fBeat, fDead and fLoad, and one that names no
	// kind.
	v7Parcel := appendParcel(nil, parcel.New(g, "app.frob", []byte{1}), nil)
	for _, old := range [][]byte{
		v7Parcel,
		v7InternedParcel(g, send),
		encodeID(8, 0xdeadbeefcafef00d),
		{9, 7, 0},
		{10, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x29, 0x40},
	} {
		f.Add(old)
		f.Add(old[:len(old)/2])
		f.Add(append(old[:len(old):len(old)], 0))
	}
	f.Add(encodeLoad([]loadEntry{{loc: 1 << 20, score: 1}, {loc: 0xffff, score: 2}})) // localities no machine has
	f.Add(encodeMoved(g, -1, ^uint64(0)))                                             // a hint toward no locality
	f.Add([]byte{fDrain})                                                             // what hello v3's one-byte parcel receipt reads as now
	// What a hello v4 peer sent under bytes 12–17: its three trigger
	// kinds, then fBeat, fDead and fLoad, under bytes that now name no
	// kind.
	v4Trigger := func(kind byte, op TrigOp, value string) []byte {
		b := g.Encode(append(binary.LittleEndian.AppendUint64([]byte{kind}, 7), byte(op)))
		b = binary.LittleEndian.AppendUint64(b, 0) // u32 slot, u32 hops
		b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
		return append(b, value...)
	}
	for _, old := range [][]byte{
		v4Trigger(12, TrigSignal, ""),
		v4Trigger(13, TrigSet, "v"),
		encodeID(14, 7),
		encodeID(15, 0xdeadbeefcafef00d),
		{16, 7, 0},
		{17, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0x29, 0x40},
	} {
		f.Add(old)
		f.Add(old[:len(old)/2])
		f.Add(append(old[:len(old):len(old)], 0))
	}
	f.Add(encodeHello([]string{"px.lco.set", "app.frob"}, nil))
	f.Add(encodeHello(nil, &memberHello{node: 1, lo: 4, hi: 8, addr: "[::1]:70000"}))
	f.Add(encodeHello([]string{"px.lco.set"}, &memberHello{node: 3, lo: 12, hi: 16, addr: "127.0.0.1:9999"}))
	f.Add(encodeHello(manyActionNames(64), nil))
	f.Add(encodeHello([]string{""}, &memberHello{}))
	f.Add([]byte{helloVersion - 1, 0, 0, 0, 0, 0})
	// A hello v5 peer: its trigger records led with a trigger ID.
	f.Add(append([]byte{5}, encodeHello([]string{"px.lco.trigger"}, nil)[1:]...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			if row := kindOf(data[0]); row != nil {
				if m, err := row.decode(data[1:], env); err == nil {
					re := reencode(t, data[0], m, send)
					m2, err := row.decode(re[1:], env)
					if err != nil || !sameMsg(m, m2) {
						t.Fatalf("%s did not survive re-encoding: %+v then %+v (%v)", row.name, m, m2, err)
					}
					parcel.Release(m.p)
					parcel.Release(m2.p)
				}
			}
		}
		if names, mh, err := parseHello(data); err == nil {
			names2, mh2, err := parseHello(encodeHello(names, mh))
			if err != nil || !reflect.DeepEqual(names, names2) || !reflect.DeepEqual(mh, mh2) {
				t.Fatalf("hello did not survive re-encoding: %q %+v then %q %+v (%v)", names, mh, names2, mh2, err)
			}
		}
	})
}

// manyActionNames builds n distinct action names for hello-table seeds.
func manyActionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("app.action.%03d", i)
	}
	return names
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
	frame := []byte{fLoad, 3, 0}
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
	rts[0].dist.onFrame(1, encodeLoad([]loadEntry{{loc: 2, score: 1}, {loc: 3, score: 0.5}}))
	b.mu.Lock()
	got := b.remote[3].score
	b.mu.Unlock()
	if got != 0.5 || b.reports.Load() != 1 {
		t.Fatalf("well-formed load report not recorded: score %v, %d reports", got, b.reports.Load())
	}
}

// TestArchitectureListsEveryFrameKind keeps ARCHITECTURE.md's wire-format
// table in step with the listing: each kind's row there carries the layout
// string the code decodes by.
func TestArchitectureListsEveryFrameKind(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	for k := byte(1); k < frameKindEnd; k++ {
		row := kindOf(k)
		cells := fmt.Sprintf("| %d | `%s` | `%s` |", k, row.name, row.layout)
		found := false
		for _, line := range lines {
			if strings.HasPrefix(line, cells) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ARCHITECTURE.md has no wire-format row starting %q", cells)
		}
	}
}
