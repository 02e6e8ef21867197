package wire

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

	"repro/internal/agas"
	"repro/internal/parcel"
)

// frameTestTables returns the two halves of one announced action table:
// what a sender encodes Parcel frames against and what the receiver of
// its hello decodes them against. The names are a registry's built-ins in
// registration order, then one application action; a name's dispatch ID
// is its position plus one, as in the registry.
func frameTestTables() (SendTable, *RecvTable) {
	names := []string{"px.lco.set", "px.lco.fail", "px.lco.signal", "px.lco.contribute",
		"px.lco.trigger", "px.nop", "px.agas.install", "px.agas.commit", "app.frob"}
	send := NewSendTable(names, nil)
	return send, NewRecvTable(names, func(name string) uint32 { return send[name] + 1 })
}

// frameTestWidth is the machine width the decoders are told about.
const frameTestWidth = 8

// reencode renders a decoded message back into a frame of the given kind
// with the encoders the runtime sends with. It fails the test for a kind
// it does not know: a new kind needs a case here.
func reencode(t testing.TB, kind byte, m Msg, send SendTable) []byte {
	t.Helper()
	switch kind {
	case Parcel:
		return AppendParcel(nil, m.P, send)
	case Halt:
		return EncodeHalt()
	case Drain, Beat:
		return encodeID(kind, m.ID)
	case DrainReply:
		return EncodeDrainReply(m.ID, m.Pending, m.Sent, m.Recv, m.FP)
	case Goodbye:
		return EncodeGoodbye(m.Sent, m.Recv)
	case Moved:
		return EncodeMoved(m.GID, m.Loc, m.Gen)
	case Dead:
		return EncodeDead(m.Node)
	case Load:
		return EncodeLoad(m.Loads)
	}
	t.Fatalf("no re-encoder for frame kind %d", kind)
	return nil
}

// sameMsg compares two decoded messages field by field; parcels by what
// the wire carries (AID is the receiver's own cache of Action), byte runs
// by content.
func sameMsg(a, b Msg) bool {
	if (a.P == nil) != (b.P == nil) {
		return false
	}
	if a.P != nil {
		p, q := a.P, b.P
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
	if len(a.Loads) != len(b.Loads) {
		return false
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			return false
		}
	}
	a.P, b.P, a.Loads, b.Loads = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// frameSample is one well-formed frame and what it must decode to.
type frameSample struct {
	label string
	frame []byte
	want  Msg
	// traced marks a frame ending in the trace trailer: cutting exactly the
	// trailer off leaves a valid untraced frame, the one truncation that
	// must be accepted.
	traced bool
	// spelled marks a parcel encoded with no table, as a node sends before
	// its peer's hello arrives: it re-encodes with no table too.
	spelled bool
}

func frameSamples(send SendTable) []frameSample {
	g := agas.GID{Home: 3, Kind: agas.KindLCO, Seq: 0xABCD}
	tc := parcel.TraceCtx{ID: 0xfeed, Span: 0xbeef, Flags: parcel.TraceSampled}
	cont := []parcel.Continuation{{Target: agas.GID{Home: 1, Kind: agas.KindLCO, Seq: 9}, Action: "px.lco.set"}}
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
	loads := []LoadEntry{{Loc: 0, Score: 0}, {Loc: 5, Score: 12.5}, {Loc: frameTestWidth - 1, Score: math.MaxFloat64}}
	samples := []frameSample{
		{label: "parcel", frame: AppendParcel(nil, known, nil), want: Msg{P: known}, spelled: true},
		{label: "parcel, traced", frame: AppendParcel(nil, &traced, nil), want: Msg{P: &traced}, traced: true, spelled: true},
		{label: "parcel, announced actions", frame: AppendParcel(nil, known, send), want: Msg{P: resolved(*known)}},
		{label: "parcel, unannounced action", frame: AppendParcel(nil, late, send), want: Msg{P: resolved(*late)}},
		{label: "parcel, announced actions, traced", frame: AppendParcel(nil, &traced, send), want: Msg{P: resolved(traced)}, traced: true},
		{label: "halt", frame: EncodeHalt()},
		{label: "drain", frame: encodeID(Drain, 42), want: Msg{ID: 42}},
		{label: "drain reply", frame: EncodeDrainReply(42, -3, 100, 99, 0xf00d),
			want: Msg{ID: 42, Pending: -3, Sent: 100, Recv: 99, FP: 0xf00d}},
		{label: "goodbye", frame: EncodeGoodbye(7, 8), want: Msg{Sent: 7, Recv: 8}},
		{label: "moved hint", frame: EncodeMoved(g, 6, 9), want: Msg{GID: g, Loc: 6, Gen: 9}},
		{label: "beat", frame: encodeID(Beat, 0xdeadbeefcafef00d), want: Msg{ID: 0xdeadbeefcafef00d}},
		{label: "dead", frame: EncodeDead(7), want: Msg{Node: 7}},
		{label: "load", frame: EncodeLoad(loads), want: Msg{Loads: loads}},
	}
	for i := range samples {
		samples[i].want.Kind = samples[i].frame[0] // Decode reports the kind byte
	}
	return samples
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
		if row == nil || row.name == "" || row.layout == "" {
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
	env := Env{Table: recv, Width: frameTestWidth}
	for _, s := range frameSamples(send) {
		kind, body := s.frame[0], s.frame[1:]
		row := kindOf(kind)
		t.Run(row.name+"/"+s.label, func(t *testing.T) {
			got, err := Decode(s.frame, env)
			if err != nil {
				t.Fatalf("well-formed frame rejected: %v", err)
			}
			if !sameMsg(got, s.want) {
				t.Fatalf("decoded %+v (parcel %v), want %+v (parcel %v)", got, got.P, s.want, s.want.P)
			}
			if got.P != nil && got.P.AID != s.want.P.AID {
				t.Fatalf("decoded parcel dispatches by ID %d, want %d", got.P.AID, s.want.P.AID)
			}
			enc := send
			if s.spelled {
				enc = nil
			}
			if re := reencode(t, kind, got, enc); !bytes.Equal(re, s.frame) {
				t.Fatalf("re-encoded to % x, want % x", re, s.frame)
			}
			parcel.Release(got.P)
			for cut := 0; cut < len(body); cut++ {
				m, err := Decode(s.frame[:1+cut], env)
				parcel.Release(m.P)
				switch {
				case s.traced && cut == len(body)-parcel.TraceWireSize:
					if err != nil {
						t.Fatalf("frame without its trailer rejected: %v", err)
					}
				case err == nil:
					t.Fatalf("truncation to %d of %d body bytes accepted", cut, len(body))
				}
			}
			if m, err := Decode(append(s.frame[:len(s.frame):len(s.frame)], 0), env); err == nil {
				parcel.Release(m.P)
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
	env := Env{Table: recv, Width: frameTestWidth}
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
		m, err := Decode(b, env)
		if err != nil || !sameMsg(m, s.want) || (m.P != nil && m.P.AID != s.want.P.AID) {
			t.Errorf("%s: golden bytes decode to %+v (parcel %v, %v), want %+v (parcel %v)", s.label, m, m.P, err, s.want, s.want.P)
		}
		parcel.Release(m.P)
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
		mh            *MemberHello
	}{
		{"hello", "08" + "00" + "02000000" + "0a00" + "70782e6c636f2e736574" + "0800" + "6170702e66726f62",
			[]string{"px.lco.set", "app.frob"}, nil},
		{"member hello", "08" + "01" + "01000000" + "0a00" + "70782e6c636f2e736574" +
			"0300" + "0c000000" + "10000000" + "0e00" + "3132372e302e302e313a39393939",
			[]string{"px.lco.set"}, &MemberHello{Node: 3, Lo: 12, Hi: 16, Addr: "127.0.0.1:9999"}},
	} {
		if got := hex.EncodeToString(EncodeHello(h.names, h.mh)); got != h.golden {
			t.Errorf("%s encodes to\n%s\nwant\n%s", h.label, got, h.golden)
		}
		b, _ := hex.DecodeString(h.golden)
		names, mh, err := ParseHello(b)
		if err != nil || !reflect.DeepEqual(names, h.names) || !reflect.DeepEqual(mh, h.mh) {
			t.Errorf("%s: golden bytes decode to %q %+v (%v), want %q %+v", h.label, names, mh, err, h.names, h.mh)
		}
	}
}

// TestFrameFieldBounds: values a layout can spell but no correct peer
// sends.
func TestFrameFieldBounds(t *testing.T) {
	env := Env{Width: frameTestWidth}
	reject := func(label string, frame []byte) {
		t.Helper()
		if _, err := Decode(frame, env); err == nil {
			t.Errorf("%s accepted", label)
		}
	}
	reject("load report for a locality outside the machine", EncodeLoad([]LoadEntry{{Loc: 1, Score: 1}, {Loc: frameTestWidth, Score: 1}}))
	reject("load report with a NaN score", EncodeLoad([]LoadEntry{{Loc: 1, Score: math.NaN()}}))
	reject("load report with an infinite score", EncodeLoad([]LoadEntry{{Loc: 1, Score: math.Inf(1)}}))
	reject("load report with a negative score", EncodeLoad([]LoadEntry{{Loc: 1, Score: -1}}))
	reject("empty load report", []byte{Load, 0, 0})
	g := agas.GID{Home: 3, Kind: agas.KindData, Seq: 99}
	send, _ := frameTestTables()
	reject("a hello v6 peer's migrate frame, read as a beat", v6Migrate(g))
	reject("a hello v7 peer's interned parcel, read as a beat", v7InternedParcel(g, send))
	reject("parcel naming a table position, without the sender's table",
		AppendParcel(nil, parcel.New(agas.GID{Home: 1, Kind: agas.KindData, Seq: 1}, "app.frob", nil), send))
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
func v7InternedParcel(g agas.GID, send SendTable) []byte {
	f := AppendParcel(nil, parcel.New(g, "app.frob", []byte{1}), send)
	f[0] = 7
	return f
}

// FuzzFrameDecode feeds every decoder of socket input arbitrary bytes: the
// input as a frame (kind byte first, decoded by Decode exactly as the
// runtime does) and as a handshake hello. Nothing may panic, and whatever
// is accepted must re-encode to bytes that decode to the same message.
func FuzzFrameDecode(f *testing.F) {
	send, recv := frameTestTables()
	env := Env{Table: recv, Width: frameTestWidth}
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
	v7Parcel := AppendParcel(nil, parcel.New(g, "app.frob", []byte{1}), nil)
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
	f.Add(EncodeLoad([]LoadEntry{{Loc: 1 << 20, Score: 1}, {Loc: 0xffff, Score: 2}})) // localities no machine has
	f.Add(EncodeMoved(g, -1, ^uint64(0)))                                             // a hint toward no locality
	f.Add([]byte{Drain})                                                              // what hello v3's one-byte parcel receipt reads as now
	// What a hello v4 peer sent under bytes 12–17: its three trigger
	// kinds, then fBeat, fDead and fLoad, under bytes that now name no
	// kind.
	v4Trigger := func(kind byte, op byte, value string) []byte {
		b := g.Encode(append(binary.LittleEndian.AppendUint64([]byte{kind}, 7), op))
		b = binary.LittleEndian.AppendUint64(b, 0) // u32 slot, u32 hops
		b = binary.LittleEndian.AppendUint32(b, uint32(len(value)))
		return append(b, value...)
	}
	for _, old := range [][]byte{
		v4Trigger(12, 3, ""),  // a signal
		v4Trigger(13, 1, "v"), // a set
		encodeID(14, 7),
		encodeID(15, 0xdeadbeefcafef00d),
		{16, 7, 0},
		{17, 1, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0x29, 0x40},
	} {
		f.Add(old)
		f.Add(old[:len(old)/2])
		f.Add(append(old[:len(old):len(old)], 0))
	}
	f.Add(EncodeHello([]string{"px.lco.set", "app.frob"}, nil))
	f.Add(EncodeHello(nil, &MemberHello{Node: 1, Lo: 4, Hi: 8, Addr: "[::1]:70000"}))
	f.Add(EncodeHello([]string{"px.lco.set"}, &MemberHello{Node: 3, Lo: 12, Hi: 16, Addr: "127.0.0.1:9999"}))
	f.Add(EncodeHello(manyActionNames(64), nil))
	f.Add(EncodeHello([]string{""}, &MemberHello{}))
	f.Add([]byte{helloVersion - 1, 0, 0, 0, 0, 0})
	// A hello v5 peer: its trigger records led with a trigger ID.
	f.Add(append([]byte{5}, EncodeHello([]string{"px.lco.trigger"}, nil)[1:]...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x00}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data, env); err == nil {
			re := reencode(t, m.Kind, m, send)
			m2, err := Decode(re, env)
			if err != nil || !sameMsg(m, m2) {
				t.Fatalf("%s did not survive re-encoding: %+v then %+v (%v)", kindOf(m.Kind).name, m, m2, err)
			}
			parcel.Release(m.P)
			parcel.Release(m2.P)
		}
		if names, mh, err := ParseHello(data); err == nil {
			names2, mh2, err := ParseHello(EncodeHello(names, mh))
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
