package main

// Joining the harness's spans to the runtime's. The harness records, per
// op, a request span and its four children; the runtime records point
// hops (post, wire.send, wire.recv, trigger, park, migrate) for every
// seventeenth root parcel. All nodes live in this process and share one
// clock, so the gap between two consecutive hops of one trace ID is the
// real time that stage took. A trace belongs to the op whose request span
// contains its first hop — unambiguous with one op outstanding.
//
// For a call-and-reply op the five stages tile the op's latency exactly:
//
//	post_to_send  request start → first wire.send   (args, CallFrom, AGAS, route)
//	wire_out      first wire.send → first wire.recv (encode, batch, kernel, decode)
//	serve         first wire.recv → last wire.send  (enqueue, queue wait, action, reply post)
//	wire_back     last wire.send → last wire.recv
//	deliver       last wire.recv → answer in hand   (trigger, future set, client wake-up)
//
// On a machine without a wire the first and last post hops stand in for
// the crossings and the two wire stages are 0.
//
// Some traces cover half an op. Every runtime samples its own root
// parcels, and a reply the serving side sends for an unsampled request is
// a root there: such a trace starts at the reply's post and yields
// wire_back and deliver only. A fan-out part whose contribution returns
// as an (untraced) trigger frame yields post_to_send and wire_out only,
// measured from its own post hop.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"

	parallex "repro"
	"repro/internal/trace"
)

var stageNames = [5]string{
	"stage.post_to_send_us", "stage.wire_out_us", "stage.serve_us", "stage.wire_back_us", "stage.deliver_us",
}

// tracedOp is one op with the runtime hops of the traces it started.
type tracedOp struct {
	rec  opRec
	hops []trace.Span
}

type stageTable struct {
	stageUs    [5]float64 // p50 per stage over the traces that have it
	callfromUs float64    // p50 of the core.callfrom span
	waitUs     float64    // p50 of the lco.wait span
	selfNs     float64    // p50 of request self time: duration minus core.callfrom and lco.wait
	tiled      int        // traces whose five stages tile the op
	ops        []tracedOp // ops that started at least one sampled trace
}

func (s *stageTable) sumUs() float64 {
	var sum float64
	for _, v := range s.stageUs {
		sum += v
	}
	return sum
}

// spans gathers every node's retained hops.
func (m *machine) spans() []trace.Span {
	var all []trace.Span
	for _, rt := range m.rts {
		all = append(all, rt.Spans().Snapshot()...)
	}
	return all
}

func p50us(ns []int64) float64 {
	slices.Sort(ns)
	return quantile(ns, 0.5)
}

func joinStages(recs []opRec, spans []trace.Span) *stageTable {
	st := &stageTable{}
	var callfrom, wait, self []int64
	for _, r := range recs {
		callfrom = append(callfrom, r.callEnd-r.argsEnd)
		wait = append(wait, r.waitEnd-r.callEnd)
		// Self time is the request minus its two calls into the program:
		// what the harness itself spent building arguments and checking
		// the answer.
		self = append(self, (r.end-r.start)-(r.callEnd-r.argsEnd)-(r.waitEnd-r.callEnd))
	}
	st.callfromUs, st.waitUs = p50us(callfrom), p50us(wait)
	st.selfNs = p50us(self) * 1e3

	byTrace := make(map[uint64][]trace.Span)
	for _, sp := range spans {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	byOp := make(map[int][]trace.Span)
	var gaps [5][]int64
	for _, hops := range byTrace {
		sort.SliceStable(hops, func(i, j int) bool { return hops[i].When < hops[j].When })
		first := hops[0]
		if first.Kind != trace.SpanPost {
			continue // head overwritten in the span ring, or a peer-started trace
		}
		i := sort.Search(len(recs), func(i int) bool { return recs[i].start > first.When }) - 1
		if i < 0 || first.When > recs[i].waitEnd {
			continue // warm-up or teardown traffic
		}
		byOp[i] = append(byOp[i], hops...)
		var sends, recvs, posts []int64
		for _, h := range hops {
			switch h.Kind {
			case trace.SpanWireSend:
				sends = append(sends, h.When)
			case trace.SpanWireRecv:
				recvs = append(recvs, h.When)
			case trace.SpanPost:
				posts = append(posts, h.When)
			}
		}
		r := recs[i]
		fromClient := first.Node == 0 && first.Loc == clientLoc
		replyOnly := !fromClient && first.Action == parallex.ActionLCOSet
		var cut []int64
		switch {
		case len(sends) >= 2 && len(recvs) >= 2:
			cut = []int64{r.start, sends[0], recvs[0], sends[len(sends)-1], recvs[len(recvs)-1], r.waitEnd}
		case len(sends) == 0 && len(recvs) == 0 && len(posts) >= 2:
			last := posts[len(posts)-1]
			cut = []int64{r.start, posts[0], posts[0], last, last, r.waitEnd}
		case len(sends) == 1 && len(recvs) == 1 && fromClient:
			gaps[0] = append(gaps[0], sends[0]-posts[0])
			gaps[1] = append(gaps[1], recvs[0]-sends[0])
			continue
		case len(sends) == 1 && len(recvs) == 1 && replyOnly:
			gaps[3] = append(gaps[3], recvs[0]-sends[0])
			gaps[4] = append(gaps[4], r.waitEnd-recvs[0])
			continue
		case len(sends) == 0 && len(recvs) == 0 && replyOnly:
			gaps[4] = append(gaps[4], r.waitEnd-posts[0])
			continue
		default:
			continue
		}
		if !slices.IsSorted(cut) {
			continue // hops of a forwarded parcel interleaved; not a clean tiling
		}
		st.tiled++
		wired := len(sends) > 0
		for k := range gaps {
			if !wired && (k == 1 || k == 3) {
				continue
			}
			gaps[k] = append(gaps[k], cut[k+1]-cut[k])
		}
	}
	for k := range gaps {
		st.stageUs[k] = p50us(gaps[k])
	}
	for i, hops := range byOp {
		sort.SliceStable(hops, func(a, b int) bool { return hops[a].When < hops[b].When })
		st.ops = append(st.ops, tracedOp{rec: recs[i], hops: hops})
	}
	sort.Slice(st.ops, func(a, b int) bool { return st.ops[a].rec.start < st.ops[b].rec.start })
	return st
}

// traceFileOps bounds the trace file: the table is computed from every
// sampled op, the file shows the first few hundred.
const traceFileOps = 256

type spanJSON struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

type hopJSON struct {
	Trace  uint64 `json:"trace"`
	Kind   string `json:"kind"`
	Node   int32  `json:"node"`
	Loc    int32  `json:"loc"`
	When   int64  `json:"when_ns"`
	Action string `json:"action,omitempty"`
}

type opJSON struct {
	Request int        `json:"request"` // shared ID of the op's spans
	Spans   []spanJSON `json:"spans"`
	Hops    []hopJSON  `json:"hops"`
}

// writeTrace writes the joined spans of the first traceFileOps sampled ops
// and the stage table they produced.
func writeTrace(path, workload string, st *stageTable) error {
	doc := struct {
		Workload string             `json:"workload"`
		Stages   map[string]float64 `json:"stages_p50_us"`
		Tiled    int                `json:"tiled_traces"`
		Ops      []opJSON           `json:"ops"`
	}{Workload: workload, Stages: make(map[string]float64), Tiled: st.tiled}
	for i, name := range stageNames {
		doc.Stages[name] = st.stageUs[i]
	}
	for i, op := range st.ops[:min(len(st.ops), traceFileOps)] {
		r := op.rec
		o := opJSON{Request: i, Spans: []spanJSON{
			{Name: "request", Start: r.start, End: r.end},
			{Name: "args", Start: r.start, End: r.argsEnd, Parent: "request"},
			{Name: "core.callfrom", Start: r.argsEnd, End: r.callEnd, Parent: "request"},
			{Name: "lco.wait", Start: r.callEnd, End: r.waitEnd, Parent: "request"},
			{Name: "verify", Start: r.waitEnd, End: r.end, Parent: "request"},
		}}
		for _, h := range op.hops {
			o.Hops = append(o.Hops, hopJSON{Trace: h.Trace, Kind: h.Kind.String(), Node: h.Node, Loc: h.Loc, When: h.When, Action: h.Action})
		}
		doc.Ops = append(doc.Ops, o)
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
