package core

// Admission control: the serving-tier overload story. Externally driven
// actions (service requests arriving as parcels) are marked sheddable;
// their delivery then goes through the locality's admission-checked post,
// and a saturated locality rejects the parcel with a typed load-shed
// verdict instead of queueing without bound. The verdict travels to the
// request's continuation exactly like an action failure, so a client
// blocked on a distributed future observes ErrOverloaded instead of an
// ever-growing queue — and can retry with backoff.
//
// Runtime-internal parcels (continuations, LCO triggers, forwards, fence
// replays) are never sheddable: once a request is admitted, the work it
// fans out must run to completion or the "zero lost accepted requests"
// contract breaks.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/locality"
	"repro/internal/parcel"
)

// ErrOverloaded is the typed load-shed verdict a saturated locality
// returns for sheddable work (re-exported from the locality layer so
// callers of the runtime need only one import).
var ErrOverloaded = locality.ErrOverloaded

// overloadedMsg is the wire-visible marker of a load-shed verdict.
// Failure deliveries flatten errors to strings (parcels carry bytes, not
// Go values), so the verdict must survive as text: IsOverloaded matches
// this marker on errors that crossed a node boundary.
const overloadedMsg = "px: overloaded"

// IsOverloaded reports whether err is a load-shed verdict — either the
// typed ErrOverloaded from this process's own locality, or the flattened
// wire form of one delivered through a failure continuation from another
// node.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, locality.ErrOverloaded) || strings.Contains(err.Error(), overloadedMsg)
}

// MarkSheddable declares the named actions externally driven: their
// parcels are delivered through admission control and may be rejected
// with ErrOverloaded when the destination locality is saturated (see
// Config.AdmitLimit). An action also marked direct (MarkDirect) skips the
// queue, and so admission, only while AdmitLimit is 0: under a limit,
// admission control is the overload policy and it is queued like any
// other. On a multi-node machine call it in Config.Register,
// alongside the action registrations themselves — the set must be
// complete before the transport starts delivering, and it is read
// lock-free on the delivery path afterwards.
func (r *Runtime) MarkSheddable(names ...string) {
	if r.sheddable == nil {
		r.sheddable = make(map[string]struct{}, len(names))
	}
	for _, name := range names {
		if name == "" {
			panic("core: MarkSheddable of empty action name")
		}
		r.sheddable[name] = struct{}{}
	}
}

// Sheds reports how many sheddable parcels this node's localities have
// rejected with ErrOverloaded.
func (r *Runtime) Sheds() uint64 {
	var n uint64
	for i := range r.locs {
		if l := r.locs[i].Load(); l != nil {
			n += l.Sheds()
		}
	}
	return n
}

// retryAfterMark prefixes the backoff hint inside a shed verdict's
// message. Like overloadedMsg, it must survive wire flattening to text,
// so RetryAfter parses it back out of any error string.
const retryAfterMark = "retry-after="

// retryAfterHint is the backoff suggestion carried inside every load-shed
// verdict (see RetryAfter), so a client that observes ErrOverloaded can
// sleep what the server suggests instead of guessing with blind
// exponential backoff. It is roughly a few admission-queue drain times at
// serving-tier rates — long enough to let the queue breathe, short enough
// that a shed request's end-to-end latency stays bounded by a handful of
// retries.
const retryAfterHint = 2 * time.Millisecond

// RetryAfter extracts the suggested backoff from a load-shed verdict, in
// whatever form it arrived — the typed local error or the flattened wire
// text of a remote one. ok is false when err carries no hint (it is not a
// shed verdict); the caller then falls back to its own backoff policy.
func RetryAfter(err error) (d time.Duration, ok bool) {
	if err == nil {
		return 0, false
	}
	s := err.Error()
	i := strings.Index(s, retryAfterMark)
	if i < 0 {
		return 0, false
	}
	s = s[i+len(retryAfterMark):]
	if j := strings.IndexByte(s, ')'); j >= 0 {
		s = s[:j]
	}
	d, perr := time.ParseDuration(s)
	if perr != nil || d <= 0 {
		return 0, false
	}
	return d, true
}

// shedParcel consumes a parcel rejected by admission control: the typed
// verdict is delivered to the parcel's continuation (reaching the
// requester's future, across the wire if need be) and the delivery's
// work unit is released. It runs on the rejecting caller's goroutine —
// posting the verdict delivery to the very queue that just reported
// saturation would double queue pressure exactly when shedding it — which
// may be one that must not wait (noWait; see sendFrom).
// The verdict carries the retry-after hint, and the hint survives wire
// flattening: it rides as text inside the verdict message.
func (r *Runtime) shedParcel(loc int, p *parcel.Parcel, noWait bool) {
	r.failParcel(loc, p, fmt.Errorf("%s: locality %d at admission limit (%s%s)",
		overloadedMsg, loc, retryAfterMark, retryAfterHint), noWait)
	r.doneWork()
}
