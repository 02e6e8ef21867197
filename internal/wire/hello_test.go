package wire

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/transport"
)

func TestHelloRoundTrip(t *testing.T) {
	names := []string{"px.lco.set", "app.frob", "", "x"}
	payload := EncodeHello(names, nil)
	got, mh, err := ParseHello(payload)
	if err != nil || mh != nil {
		t.Fatalf("ParseHello: mh=%v err=%v", mh, err)
	}
	if len(got) != len(names) {
		t.Fatalf("got %d names, want %d", len(got), len(names))
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("name %d: %q != %q", i, got[i], names[i])
		}
	}
	// There is one hello: an empty payload, any other version, any
	// truncation and any padding are all refused. Version 4 is the last
	// one whose peers sent acknowledged trigger frames, version 5 the last
	// whose trigger records carried a trigger ID, version 6 the last that
	// exchanged migration frames, and version 7 the last that sent parcels
	// in two frame kinds.
	if _, _, err := ParseHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	for _, v := range []byte{0, 4, 5, 6, 7, helloVersion + 1} {
		other := append([]byte{v}, payload[1:]...)
		_, _, err := ParseHello(other)
		if err == nil {
			t.Fatalf("hello version %d accepted", v)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("speaks %d", helloVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d refusal %q does not say %q", v, err, want)
			}
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := ParseHello(payload[:cut]); err == nil {
			t.Fatalf("hello truncated to %d of %d bytes accepted", cut, len(payload))
		}
	}
	if _, _, err := ParseHello(append(payload, 0)); err == nil {
		t.Fatal("padded hello accepted")
	}
}

// TestHelloMemberSection: a hello carrying a membership announcement
// round-trips the joiner's identity next to the action table.
func TestHelloMemberSection(t *testing.T) {
	names := []string{"px.lco.set", "app.frob"}
	in := &MemberHello{Node: 3, Lo: 12, Hi: 16, Addr: "127.0.0.1:4242"}
	got, mh, err := ParseHello(EncodeHello(names, in))
	if err != nil || mh == nil {
		t.Fatalf("member hello: mh=%v err=%v", mh, err)
	}
	if *mh != *in {
		t.Fatalf("member section round trip: got %+v want %+v", *mh, *in)
	}
	if len(got) != len(names) {
		t.Fatalf("member hello lost the action table: %d names, want %d", len(got), len(names))
	}
	// A member section without any action table still parses.
	if _, mh, err := ParseHello(EncodeHello(nil, in)); err != nil || mh == nil || *mh != *in {
		t.Fatalf("bare member hello: mh=%v err=%v", mh, err)
	}
	// Truncated member sections are rejected, not mis-parsed.
	full := EncodeHello(nil, in)
	if _, _, err := ParseHello(full[:len(full)-3]); err == nil {
		t.Fatal("truncated member section accepted")
	}
}

// TestHelloPrefixBudgets: the announced table prefix respects both the
// entry-count and the transport byte budget, member section included, so a
// huge registry degrades to partial interning instead of a SetHello panic
// at startup.
func TestHelloPrefixBudgets(t *testing.T) {
	small := []string{"a", "b", "c"}
	if got := helloPrefix(small, nil); got != 3 {
		t.Fatalf("helloPrefix(small) = %d, want 3", got)
	}
	big := make([]string, 40)
	for i := range big {
		big[i] = string(make([]byte, 60000)) // 40 × 60KB >> transport.MaxHello
	}
	n := helloPrefix(big, nil)
	if n >= len(big) || n == 0 {
		t.Fatalf("helloPrefix(big) = %d, want a proper nonzero prefix of %d", n, len(big))
	}
	payload := EncodeHello(big, nil)
	if len(payload) > transport.MaxHello {
		t.Fatalf("EncodeHello encoded %d bytes, over the %d transport budget", len(payload), transport.MaxHello)
	}
	names, _, err := ParseHello(payload)
	if err != nil || len(names) != n {
		t.Fatalf("truncated hello: %d names err=%v, want %d", len(names), err, n)
	}
	// A table that fills the budget on its own leaves no room for a member
	// section: the section's bytes come out of the table's share.
	full := make([]string, 16)
	room := transport.MaxHello - 6 - 2*len(full)
	for i := range full {
		full[i] = strings.Repeat("a", room/(len(full)-i))
		room -= len(full[i])
	}
	if got := helloPrefix(full, nil); got != len(full) {
		t.Fatalf("helloPrefix(full, nil) = %d, want all %d names", got, len(full))
	}
	mh := &MemberHello{Node: 1, Lo: 2, Hi: 4, Addr: "127.0.0.1:9999"}
	payload = EncodeHello(full, mh)
	if len(payload) > transport.MaxHello {
		t.Fatalf("member hello encoded %d bytes, over the %d transport budget", len(payload), transport.MaxHello)
	}
	names, got, err := ParseHello(payload)
	if err != nil || got == nil || *got != *mh {
		t.Fatalf("member hello at the budget: mh=%v err=%v", got, err)
	}
	if n := helloPrefix(full, mh); len(names) != n || n >= len(full) {
		t.Fatalf("member hello announced %d names, helloPrefix says %d of %d", len(names), n, len(full))
	}
}
