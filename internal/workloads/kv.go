package workloads

// The serving-tier workload: a sharded key-value store whose shards are
// ParalleX objects homed one per locality at well-known AGAS names, so any
// node computes a key's shard GID locally and sends the request straight
// to the data. Requests arrive as ordinary parcels; the get/put actions
// are marked sheddable, so a saturated locality rejects them with the
// typed overload verdict (core.ErrOverloaded through the request's
// continuation) instead of queueing without bound. Both are also direct:
// a request runs where it lands — on the read goroutine that decoded it,
// or on the goroutine that sent it from this node — unless an admission
// limit is set (see core.Runtime.MarkDirect).

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/agas"
	"repro/internal/core"
	"repro/internal/parcel"
)

// Actions of the KV service. Both are sheddable: under an admission limit
// they enter through admission control and may be rejected with
// core.ErrOverloaded under saturation. Both are direct: short, never
// waiting, they run where their parcel lands when no limit is set.
const (
	// ActionKVGet reads a key: args {String key}, result the stored value
	// ([]byte, empty for a miss).
	ActionKVGet = "wl.kv.get"
	// ActionKVPut stores a value: args {String key, Bytes value}, result
	// the stored length as int64.
	ActionKVPut = "wl.kv.put"
)

// KVSlot is the well-known slot number the KV shard occupies on each
// locality (see agas.WellKnownGID).
const KVSlot = 0

// KVShard is one locality's partition of the key space. Parcels for one
// shard normally land on one worker (object affinity), but steals may run
// them concurrently, so the map is lock-protected.
//
// A stored value is never mutated: put stores a private copy and replaces
// the map entry, so get returns the stored slice itself, and a reader
// holding it keeps a consistent value whatever later puts do.
type KVShard struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewKVShard returns an empty shard.
func NewKVShard() *KVShard {
	return &KVShard{m: make(map[string][]byte)}
}

// Len reports the number of keys resident in the shard.
func (s *KVShard) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// KVShardGID computes the well-known name of locality loc's shard; every
// node derives the same GID without any directory traffic.
func KVShardGID(loc int) agas.GID {
	return agas.WellKnownGID(loc, agas.KindData, KVSlot)
}

// KVKeyLocality maps a key to the locality owning its shard.
func KVKeyLocality(key string, localities int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(localities))
}

// RegisterKVService installs the get/put actions, marks them sheddable
// and direct, and registers the px.serve.* request counters. Call it once per runtime
// inside Config.Register (on every node of a distributed machine), like
// the other workload action installers.
func RegisterKVService(rt *core.Runtime) {
	reg := rt.Metrics()
	gets := reg.Counter("px.serve.gets")
	puts := reg.Counter("px.serve.puts")
	hits := reg.Counter("px.serve.hits")
	misses := reg.Counter("px.serve.misses")

	rt.MarkSheddable(ActionKVGet, ActionKVPut)
	rt.MarkDirect(ActionKVGet, ActionKVPut)
	rt.MustRegisterAction(ActionKVGet, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		sh, ok := target.(*KVShard)
		if !ok {
			return nil, fmt.Errorf("workloads: %s on %T", ActionKVGet, target)
		}
		key := args.StringAliased()
		if err := args.Err(); err != nil {
			return nil, err
		}
		gets.Inc()
		sh.mu.Lock()
		v, found := sh.m[string(key)] // a lookup: no key string is made
		sh.mu.Unlock()
		if !found {
			misses.Inc()
			return []byte(nil), nil
		}
		hits.Inc()
		// No copy: stored values are immutable (see KVShard), so the slice
		// stays valid while the result is encoded after the lock is gone.
		return v, nil
	})
	rt.MustRegisterAction(ActionKVPut, func(ctx *core.Context, target any, args *parcel.Reader) (any, error) {
		sh, ok := target.(*KVShard)
		if !ok {
			return nil, fmt.Errorf("workloads: %s on %T", ActionKVPut, target)
		}
		key := args.String()
		val := append([]byte(nil), args.BytesAliased()...) // the one private copy
		if err := args.Err(); err != nil {
			return nil, err
		}
		puts.Inc()
		sh.mu.Lock()
		sh.m[key] = val
		sh.mu.Unlock()
		return int64(len(val)), nil
	})
}

// InstallKVShards creates one shard per locality resident on this node,
// each at its well-known name, and returns the GIDs of every locality's
// shard (resident or not — the slice is the machine-wide routing table a
// client indexes by KVKeyLocality). On a distributed machine every node
// calls this once after construction; the non-resident entries are served
// by the nodes hosting them.
//
// The installation is membership-aware: when a node dies and this node
// adopts its localities, fresh (empty) shards are installed at the same
// well-known names, so the key space stays fully served. The dead node's
// data is gone — the workload models a cache tier, not a replicated
// store — but requests to the re-homed shards complete instead of
// failing forever.
func InstallKVShards(rt *core.Runtime) []agas.GID {
	shards := make([]agas.GID, rt.Localities())
	for loc := range shards {
		if rt.Resident(loc) {
			shards[loc] = rt.NewObjectAtWellKnown(loc, agas.KindData, KVSlot, NewKVShard())
		} else {
			shards[loc] = KVShardGID(loc)
		}
	}
	rt.SubscribeMembership(func(ev agas.MemberEvent) {
		if ev.Kind != agas.MemberDied {
			return
		}
		for _, loc := range ev.Moved {
			if rt.Resident(loc) {
				rt.NewObjectAtWellKnown(loc, agas.KindData, KVSlot, NewKVShard())
			}
		}
	})
	return shards
}
