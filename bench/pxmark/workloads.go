package main

// The four workloads. Each is a closed loop of independent sequential
// clients ("streams"): a stream issues its next op only after the previous
// one was answered, and every answer is checked. Inputs come from the seed
// alone — the machine sees generated keys, ops, vectors and move order,
// never the seed.
//
// Streams of one phase partition the workload's objects (KV keys, migrate
// targets) among themselves, so an object never has two ops in flight and
// every answer has exactly one right value.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	parallex "repro"
	"repro/internal/workloads"
)

// stream is one sequential client. The three steps are timed separately
// in the traced run; prepare picks the op and builds its arguments, call
// hands it to the runtime and returns without blocking, verify checks the
// answer (err is errOpTimeout when none arrived in time).
type stream interface {
	prepare()
	call() *parallex.Future
	verify(v any, err error) bool
}

// session is a workload installed on one machine.
type session interface {
	// streams returns n clients for the given phase; their op sequences
	// depend only on the seed, the phase and n.
	streams(phase, n int) []stream
	// finish stops the session's helpers and runs the end-state checks,
	// returning one line per violated invariant.
	finish() []string
	// opParcels lists the parcels one average op puts through the
	// serializer (request first), each with the number sent per op.
	opParcels() []weightedParcel
}

// mover is implemented by sessions that migrate objects while ops run.
type mover interface {
	// movesBetween returns the rt.Migrate latencies (ns) of the moves
	// that started inside [t0, t1).
	movesBetween(t0, t1 time.Time) []int64
}

type weightedParcel struct {
	p     *parallex.Parcel
	perOp float64
}

// workload is a named recipe for a session; why is the one line
// BENCHMARK.json records about why it is in the suite.
type workload struct {
	name     string
	why      string
	nodes    int
	window   int
	register func(rt *parallex.Runtime)
	install  func(m *machine, seed uint64) (session, error)
}

var errOpTimeout = errors.New("pxmark: no answer within the per-op timeout")

// clientLoc is the locality every op is issued from (node 0).
const clientLoc = 0

func allWorkloads() []workload {
	return []workload{
		{name: "kv-remote", nodes: 2, window: 32, register: workloads.RegisterKVService, install: installKV,
			why: "ping-pong of small KV requests across the real wire: per-frame cost in parcel, transport and core dist/ack dominates"},
		{name: "kv-local", nodes: 1, window: 32, register: workloads.RegisterKVService, install: installKV,
			why: "the identical KV request stream on one node with no transport: the bypass for every wire optimisation"},
		{name: "fanout-reduce", nodes: 2, window: 2, register: registerFanout, install: installFanout,
			why: "16-parcel bursts of 1 KB frames into a distributed reduce LCO: batching and trigger frames, slowest part sets the step"},
		{name: "migrate-chase", nodes: 2, window: 8, register: registerTouch, install: installMigrate,
			why: "calls chasing 16 objects that live-migrate every 32 calls: AGAS writes, fences, parking, forwarding, moved verdicts"},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// streamRNG derives a stream's generator from the seed and its place in
// the run, so the op sequence is a pure function of (seed, phase, stream).
func streamRNG(seed uint64, phase, id int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(phase)<<32|uint64(id)))
}

// ---- kv-remote / kv-local -------------------------------------------------

const (
	kvKeys       = 1024
	kvValueBytes = 64
	kvPutOneIn   = 10
	// kvUnknown marks a key whose last put got no answer: its value can no
	// longer be predicted, so later gets accept anything.
	kvUnknown = ^uint64(0)
)

type kvSession struct {
	rt     *parallex.Runtime
	seed   uint64
	shards []parallex.GID
	keys   []string // all hash to localities 2 and 3
	locs   []int
	last   []uint64 // id of the last value put per key; 0 = never written
}

// installKV installs one shard per locality and picks the first kvKeys key
// names whose shard lives on localities 2 and 3 — node 1 of the two-node
// machine — so kv-remote and kv-local serve the identical stream.
func installKV(m *machine, seed uint64) (session, error) {
	s := &kvSession{rt: m.rts[0], seed: seed, last: make([]uint64, kvKeys)}
	for _, rt := range m.rts {
		s.shards = workloads.InstallKVShards(rt)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6b6579)) // key names are part of the input
	for len(s.keys) < kvKeys {
		key := fmt.Sprintf("k%016x", rng.Uint64())
		if loc := workloads.KVKeyLocality(key, totalLocalities); loc >= localitiesPerNode {
			s.keys = append(s.keys, key)
			s.locs = append(s.locs, loc)
		}
	}
	// Write every key once so gets always carry a full-size value.
	w := &kvStream{ses: s, tag: 1 << 56}
	futs := make([]*parallex.Future, 0, 32)
	for k := 0; k < kvKeys; {
		futs = futs[:0]
		for ; k < kvKeys && len(futs) < cap(futs); k++ {
			w.key, w.put = k, true
			w.build()
			s.last[k] = w.id
			futs = append(futs, w.call())
		}
		for _, f := range futs {
			if _, err := f.Get(); err != nil {
				return nil, fmt.Errorf("kv preload: %w", err)
			}
		}
	}
	return s, nil
}

func (s *kvSession) streams(phase, n int) []stream {
	out := make([]stream, n)
	for i := range out {
		st := &kvStream{ses: s, rng: streamRNG(s.seed, phase, i), tag: uint64(phase+2)<<56 | uint64(i)<<40}
		for k := i; k < kvKeys; k += n {
			st.keys = append(st.keys, k)
		}
		out[i] = st
	}
	return out
}

func (s *kvSession) finish() []string { return nil }

func (s *kvSession) opParcels() []weightedParcel {
	w := &kvStream{ses: s, tag: 1 << 56}
	fut := parallex.WellKnownGID(clientLoc, parallex.KindLCO, 1)
	reply := func(v any) *parallex.Parcel {
		raw, _ := parallex.EncodeValue(v)
		return parallex.NewParcel(fut, parallex.ActionLCOSet, parallex.NewArgs().Bytes(raw).Encode())
	}
	req := func(put bool) *parallex.Parcel {
		w.key, w.put = 0, put
		w.build()
		action := workloads.ActionKVGet
		if put {
			action = workloads.ActionKVPut
		}
		return parallex.NewParcel(s.shards[s.locs[0]], action, w.args,
			parallex.Continuation{Target: fut, Action: parallex.ActionLCOSet})
	}
	const putShare = 1.0 / kvPutOneIn
	return []weightedParcel{
		{p: req(false), perOp: 1 - putShare},
		{p: reply(make([]byte, kvValueBytes)), perOp: 1 - putShare},
		{p: req(true), perOp: putShare},
		{p: reply(int64(kvValueBytes)), perOp: putShare},
	}
}

type kvStream struct {
	ses  *kvSession
	rng  *rand.Rand
	keys []int
	tag  uint64 // phase and stream in the high bits of every value id
	seq  uint64

	key  int
	put  bool
	id   uint64
	args []byte
	val  [kvValueBytes]byte
}

// kvValue fills dst with the value a put of the given id to key carries:
// the id, the key index, then a pattern derived from both.
func kvValue(dst *[kvValueBytes]byte, id uint64, key int) {
	binary.LittleEndian.PutUint64(dst[0:], id)
	binary.LittleEndian.PutUint64(dst[8:], uint64(key))
	for i := 16; i < kvValueBytes; i++ {
		dst[i] = byte(id) + byte(key) + byte(i)
	}
}

func (s *kvStream) prepare() {
	s.key = s.keys[s.rng.IntN(len(s.keys))]
	s.put = s.rng.IntN(kvPutOneIn) == 0
	s.build()
}

func (s *kvStream) build() {
	a := parallex.NewArgs().String(s.ses.keys[s.key])
	if s.put {
		s.seq++
		s.id = s.tag | s.seq
		kvValue(&s.val, s.id, s.key)
		a.Bytes(s.val[:])
	}
	s.args = a.Encode()
}

func (s *kvStream) call() *parallex.Future {
	action := workloads.ActionKVGet
	if s.put {
		action = workloads.ActionKVPut
	}
	return s.ses.rt.CallFrom(clientLoc, s.ses.shards[s.ses.locs[s.key]], action, s.args)
}

func (s *kvStream) verify(v any, err error) bool {
	last := &s.ses.last[s.key]
	if s.put {
		if n, ok := v.(int64); err != nil || !ok || n != kvValueBytes {
			*last = kvUnknown
			return false
		}
		*last = s.id
		return true
	}
	got, ok := v.([]byte)
	if err != nil || !ok {
		return false
	}
	switch *last {
	case kvUnknown:
		return true
	case 0:
		return len(got) == 0
	}
	kvValue(&s.val, *last, s.key)
	return bytes.Equal(got, s.val[:])
}

// ---- fanout-reduce --------------------------------------------------------

const (
	fanoutParts   = 16
	fanoutFloats  = 128
	fanoutVectors = 64
	actionSum     = "pxmark.sum"
)

// registerFanout installs the step's leaf action: sum the carried vector
// and contribute the sum to the reduce LCO named beside it.
func registerFanout(rt *parallex.Runtime) {
	rt.MustRegisterAction(actionSum, func(ctx *parallex.Context, _ any, args *parallex.ArgsReader) (any, error) {
		red := args.GID()
		vec := args.Float64s()
		if err := args.Err(); err != nil {
			return nil, err
		}
		var sum float64
		for _, x := range vec {
			sum += x
		}
		return nil, ctx.Runtime().ContributeLCO(ctx.Locality(), red, sum)
	})
}

type fanoutSession struct {
	rt      *parallex.Runtime
	seed    uint64
	vectors [][]float64
	sums    []float64
}

// installFanout generates the vector pool. Elements are small whole
// numbers, so every partial and total sum is exact in float64 whatever
// order the contributions arrive in, and the closed form can be compared
// with ==.
func installFanout(m *machine, seed uint64) (session, error) {
	s := &fanoutSession{rt: m.rts[0], seed: seed}
	rng := rand.New(rand.NewPCG(seed, 0x766563))
	for i := 0; i < fanoutVectors; i++ {
		vec := make([]float64, fanoutFloats)
		var sum float64
		for j := range vec {
			vec[j] = float64(rng.IntN(1000))
			sum += vec[j]
		}
		s.vectors = append(s.vectors, vec)
		s.sums = append(s.sums, sum)
	}
	return s, nil
}

func (s *fanoutSession) streams(phase, n int) []stream {
	out := make([]stream, n)
	for i := range out {
		out[i] = &fanoutStream{ses: s, rng: streamRNG(s.seed, phase, i)}
	}
	return out
}

func (s *fanoutSession) finish() []string { return nil }

func (s *fanoutSession) opParcels() []weightedParcel {
	red := parallex.WellKnownGID(clientLoc, parallex.KindLCO, 1)
	args := parallex.NewArgs().GID(red).Float64s(s.vectors[0]).Encode()
	p := parallex.NewParcel(s.rt.LocalityGID(totalLocalities-1), actionSum, args)
	// The quarter of the parts addressed to the client's own locality
	// skips the serializer. Contributions travel as trigger frames, not
	// parcels, and are counted by lco.trigger_frames_per_op instead.
	return []weightedParcel{{p: p, perOp: fanoutParts * 3 / 4}}
}

type fanoutStream struct {
	ses  *fanoutSession
	rng  *rand.Rand
	red  parallex.GID
	want float64
	args [fanoutParts][]byte
}

func (s *fanoutStream) prepare() {
	rt := s.ses.rt
	s.red = rt.NewDistReduceAt(clientLoc, fanoutParts, parallex.ReduceSum, float64(0))
	s.want = 0
	for i := range s.args {
		v := s.rng.IntN(fanoutVectors)
		s.want += s.ses.sums[v]
		s.args[i] = parallex.NewArgs().GID(s.red).Float64s(s.ses.vectors[v]).Encode()
	}
}

func (s *fanoutStream) call() *parallex.Future {
	rt := s.ses.rt
	fut := rt.WaitLCO(clientLoc, s.red)
	for i, a := range s.args {
		rt.SendFrom(clientLoc, parallex.NewParcel(rt.LocalityGID(i%totalLocalities), actionSum, a))
	}
	return fut
}

func (s *fanoutStream) verify(v any, err error) bool {
	if err == nil {
		// A step that timed out keeps its LCO: late contributions must
		// still find their target.
		s.ses.rt.FreeObject(s.red)
	}
	got, ok := v.(float64)
	return err == nil && ok && got == s.want
}

// ---- migrate-chase --------------------------------------------------------

const (
	migObjects    = 16
	migVectorLen  = 32 // int64s per object: a 256-byte payload to move
	migCallsPerMv = 32
	actionTouch   = "pxmark.touch"
)

// registerTouch installs the call every migrate-chase op makes: bump the
// object's touch counter (element 0) and answer with the new count.
func registerTouch(rt *parallex.Runtime) {
	rt.MustRegisterAction(actionTouch, func(_ *parallex.Context, target any, _ *parallex.ArgsReader) (any, error) {
		vec, ok := target.([]int64)
		if !ok || len(vec) != migVectorLen {
			return nil, fmt.Errorf("%s on %T", actionTouch, target)
		}
		vec[0]++
		return vec[0], nil
	})
}

type moveRec struct {
	start time.Time
	ns    int64
}

type migSession struct {
	m    *machine
	seed uint64
	objs []parallex.GID

	// Owned by the stream holding the object in the current phase.
	touched []int64

	// Owned by the mover goroutine until finish has joined it.
	loc     []int
	moveErr []string

	mu      sync.Mutex
	moveLog []moveRec

	completed atomic.Int64
	tokens    chan struct{}
	stop      chan struct{}
	done      sync.WaitGroup
}

// installMigrate spreads the objects round-robin over all four localities
// and starts the mover, which performs one migration per token; a token is
// minted for every migCallsPerMv-th completed call.
func installMigrate(m *machine, seed uint64) (session, error) {
	s := &migSession{
		m: m, seed: seed,
		touched: make([]int64, migObjects),
		loc:     make([]int, migObjects),
		// One token per 32 calls: the buffer only has to cover the calls
		// that can complete while a single move is in progress.
		tokens: make(chan struct{}, 4096),
		stop:   make(chan struct{}),
	}
	for i := 0; i < migObjects; i++ {
		s.loc[i] = i % totalLocalities
		s.objs = append(s.objs, m.nodeOf(s.loc[i]).NewDataAt(s.loc[i], make([]int64, migVectorLen)))
	}
	s.done.Add(1)
	go s.moveLoop(rand.New(rand.NewPCG(seed, 0x6d6f7665)))
	return s, nil
}

// moveLoop migrates the next object of the seeded order to the following
// locality — alternately within a node and across the wire — on the
// runtime of the node that owns it, as Migrate requires.
func (s *migSession) moveLoop(order *rand.Rand) {
	defer s.done.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.tokens:
		}
		obj := order.IntN(migObjects)
		to := (s.loc[obj] + 1) % totalLocalities
		start := time.Now()
		err := s.m.nodeOf(s.loc[obj]).Migrate(s.objs[obj], to)
		s.mu.Lock()
		s.moveLog = append(s.moveLog, moveRec{start: start, ns: time.Since(start).Nanoseconds()})
		s.mu.Unlock()
		if err != nil {
			s.moveErr = append(s.moveErr, fmt.Sprintf("migrate object %d to L%d: %v", obj, to, err))
			continue
		}
		s.loc[obj] = to
	}
}

func (s *migSession) streams(phase, n int) []stream {
	out := make([]stream, n)
	for i := range out {
		st := &migStream{ses: s, rng: streamRNG(s.seed, phase, i)}
		for o := i; o < migObjects; o += n {
			st.objs = append(st.objs, o)
		}
		if phase == phaseSetup {
			// The first op must cross the wire, so that bring-up always
			// includes the dial and handshake: object 2 starts on node 1.
			st.objs = []int{localitiesPerNode}
		}
		out[i] = st
	}
	return out
}

func (s *migSession) movesBetween(t0, t1 time.Time) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int64
	for _, mv := range s.moveLog {
		if !mv.start.Before(t0) && mv.start.Before(t1) {
			out = append(out, mv.ns)
		}
	}
	return out
}

// finish joins the mover and checks exactly-once delivery and placement:
// every object sits on the locality its move count predicts, the home
// directory agrees, and its touch counter equals the calls answered.
func (s *migSession) finish() []string {
	close(s.stop)
	s.done.Wait()
	bad := s.moveErr
	if n := s.m.counters()["px.lco.trigger.retried"]; n != 0 {
		bad = append(bad, fmt.Sprintf("px.lco.trigger.retried = %v, want 0", n))
	}
	for i, g := range s.objs {
		v, ok := s.m.nodeOf(s.loc[i]).LocalObject(s.loc[i], g)
		vec, isVec := v.([]int64)
		switch {
		case !ok || !isVec:
			bad = append(bad, fmt.Sprintf("object %d not resident at L%d where its moves put it", i, s.loc[i]))
		case vec[0] != s.touched[i]:
			bad = append(bad, fmt.Sprintf("object %d touched %d times for %d answered calls", i, vec[0], s.touched[i]))
		}
		if owner, err := s.m.nodeOf(int(g.Home)).AGAS().Owner(g); err != nil || owner != s.loc[i] {
			bad = append(bad, fmt.Sprintf("object %d: home directory says L%d (%v), moves say L%d", i, owner, err, s.loc[i]))
		}
	}
	return bad
}

func (s *migSession) opParcels() []weightedParcel {
	fut := parallex.WellKnownGID(clientLoc, parallex.KindLCO, 1)
	raw, _ := parallex.EncodeValue(int64(1))
	req := parallex.NewParcel(s.objs[0], actionTouch, nil, parallex.Continuation{Target: fut, Action: parallex.ActionLCOSet})
	reply := parallex.NewParcel(fut, parallex.ActionLCOSet, parallex.NewArgs().Bytes(raw).Encode())
	// A quarter of the time the object sits on the client's own locality
	// and nothing is encoded.
	return []weightedParcel{{p: req, perOp: 0.75}, {p: reply, perOp: 0.75}}
}

type migStream struct {
	ses  *migSession
	rng  *rand.Rand
	objs []int
	obj  int
}

func (s *migStream) prepare() { s.obj = s.objs[s.rng.IntN(len(s.objs))] }

func (s *migStream) call() *parallex.Future {
	return s.ses.m.rts[0].CallFrom(clientLoc, s.ses.objs[s.obj], actionTouch, nil)
}

func (s *migStream) verify(v any, err error) bool {
	if err != nil {
		return false
	}
	s.ses.touched[s.obj]++
	if s.ses.completed.Add(1)%migCallsPerMv == 0 {
		select {
		case s.ses.tokens <- struct{}{}:
		default: // the mover is 4096 moves behind; skip rather than block a client
		}
	}
	n, ok := v.(int64)
	return ok && n == s.ses.touched[s.obj]
}
