package core

import (
	"fmt"
	"time"

	"repro/internal/agas"
	"repro/internal/lco"
	"repro/internal/parcel"
)

// NewObjectAt installs v as a globally named object of the given kind on
// locality loc and returns its GID. loc must be resident on this node;
// objects on other nodes are created by those nodes and reached by parcel.
func (r *Runtime) NewObjectAt(loc int, kind agas.Kind, v any) agas.GID {
	r.checkResident(loc)
	g := r.agas.Alloc(loc, kind)
	r.loc(loc).Store().Put(g, v)
	return g
}

// NewDataAt installs a data object.
func (r *Runtime) NewDataAt(loc int, v any) agas.GID {
	return r.NewObjectAt(loc, agas.KindData, v)
}

// NewObjectAtWellKnown installs v under the deterministic well-known name
// (loc, kind, slot) — see agas.WellKnownGID — and returns it. Every node
// computes the same GID from the same coordinates, so services installed
// this way (one shard per locality, say) need no directory exchange or
// GID distribution step before clients can address them. loc must be
// resident on this node; each node installs the shards it hosts.
func (r *Runtime) NewObjectAtWellKnown(loc int, kind agas.Kind, slot int, v any) agas.GID {
	r.checkResident(loc)
	g := r.agas.AllocWellKnown(loc, kind, slot)
	r.loc(loc).Store().Put(g, v)
	return g
}

// LocalObject fetches an object from loc's store without any routing; it is
// an instrumentation/test hook, not a model operation.
func (r *Runtime) LocalObject(loc int, g agas.GID) (any, bool) {
	r.checkLoc(loc)
	l := r.loc(loc)
	if l == nil {
		return nil, false
	}
	return l.Store().Get(g)
}

// FreeObject removes g from the machine entirely. Names homed on other
// nodes are left to their owning node (freeing is not routed). A reply
// name has nothing to free: its slot empties itself on first use.
func (r *Runtime) FreeObject(g agas.GID) {
	if g.Kind == agas.KindReply {
		return
	}
	owner, err := r.agas.Owner(g)
	if err != nil {
		return
	}
	l := r.loc(owner)
	if l == nil {
		return
	}
	l.Store().Delete(g)
	r.agas.Free(g)
}

// Migrate moves the object named g to locality to — on this node or any
// other — leaving its global name valid. The move is live: the object is
// first quiesced (the migration fence waits for any running action and
// parks later arrivals with their work units still charged, so Wait counts
// them), then the payload travels — wire-encoded via the parcel value
// codec when the destination is on another node — the home directory
// commits the new owner under a bumped generation, and a forwarding
// pointer is left behind so in-flight parcels chase at most one hop.
// Senders with stale translations learn the new owner from the "moved"
// hint the node that forwards their next parcel sends back.
//
// Migration is initiated on the node currently owning the object, and for
// a cross-node destination the payload must be encodable by the parcel
// value codec. An action may migrate other objects, but must not migrate
// its own target (the fence would wait on the caller), and two actions
// mutually migrating each other's targets deadlock the same way.
func (r *Runtime) Migrate(g agas.GID, to int) error {
	r.checkLoc(to)
	if !g.Kind.Movable() {
		return fmt.Errorf("core: migrate of %v: %s names are immovable", g, g.Kind)
	}
	r.lockMigration(g)
	defer r.unlockMigration(g)
	// The move itself is outstanding work: Wait must not declare the
	// machine quiescent while a payload is in transit between stores.
	r.addWork()
	defer r.doneWork()

	from, gen, err := r.agas.Locate(g)
	if err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if !r.Resident(from) {
		return fmt.Errorf("core: migrate of %v: owned by node %d; migration is initiated on the owning node",
			g, r.nodeOf(from))
	}

	// Quiesce: running actions on g drain, later arrivals park until the
	// move commits, then re-route toward the new owner. A park does not
	// consume the MaxHops forwarding budget: it is the migration holding
	// the parcel, not a mis-route, and each re-park requires another
	// in-flight migration, which bounds the cycle on its own.
	r.fences.close(g)
	err = r.migrateLocked(g, from, to, gen+1)
	for _, pk := range r.fences.open(g) {
		r.runReply(r.route(pk.loc, pk.p))
	}
	return err
}

// migrateLocked performs the fenced move of g from resident locality
// `from` to locality `to` at generation newGen: payload transfer, then
// directory commit, then local routing state (import or forwarding
// pointer).
func (r *Runtime) migrateLocked(g agas.GID, from, to int, newGen uint64) error {
	v, ok := r.loc(from).Store().Take(g)
	if !ok {
		return fmt.Errorf("core: migrate of %v: not resident at L%d", g, from)
	}
	destNode := r.nodeOf(to)
	if destNode == r.NodeID() {
		// Model the data movement cost on the intra-node network.
		if lat := r.net.Latency(from, to, approxSize(v)); lat > 0 {
			time.Sleep(lat)
		}
		r.loc(to).Store().Put(g, v)
	} else {
		payload, err := parcel.EncodeAny(v)
		if err != nil {
			r.loc(from).Store().Put(g, v)
			return fmt.Errorf("core: migrate of %v: payload not wire-encodable: %w", g, err)
		}
		delivered, err := r.dist.migrateTo(destNode, g, to, newGen, payload)
		if err != nil && !delivered {
			// The peer provably does not have the object: reinstall.
			r.loc(from).Store().Put(g, v)
			return err
		}
		if err != nil {
			// Ambiguous (unconfirmed push): the peer may hold the object, so
			// reinstalling could duplicate it. Commit forward and record.
			r.recordError(fmt.Errorf("core: migrate of %v: %w", g, err))
		}
	}
	// Commit the new owner in the home directory, wherever it lives. On
	// commit failure the object HAS still moved — only the directory
	// lags (unreachable home node, or the name was freed mid-move) — so
	// the routing state below is installed regardless: the forwarding
	// pointer keeps the name resolvable, and the "moved" hint it sends a
	// lagging home node is applied there as the late commit.
	var commitErr error
	if homeNode := r.nodeOf(int(g.Home)); homeNode == r.NodeID() {
		commitErr = r.agas.CommitMigration(g, to, newGen)
	} else if err := r.dist.commitDir(homeNode, g, to, newGen); err != nil {
		r.recordError(fmt.Errorf("core: migrate of %v: directory commit: %w", g, err))
	}
	r.agas.DropImport(g)
	if destNode == r.NodeID() {
		if !r.Resident(int(g.Home)) {
			r.agas.SetImport(g, to, newGen)
		}
	} else if !r.Resident(int(g.Home)) {
		r.agas.SetForward(g, to, newGen)
	}
	r.slow.Migrations.Inc()
	// A move that stayed on this node lands under a local balancer
	// cooldown, exactly as a cross-node arrival does on its receiver:
	// whoever placed the object — policy or application — gets a few
	// ticks of deference before the balancer may overrule it.
	if destNode == r.NodeID() {
		r.coolBalance(g)
	}
	return commitErr
}

// nodeOf reports which node hosts locality loc (0 on a single-process
// machine, -1 when the locality is beyond the known map).
func (r *Runtime) nodeOf(loc int) int {
	if r.dist == nil {
		return 0
	}
	if n, known := r.dist.lmap.NodeOf(loc); known {
		return n
	}
	return -1
}

// lockMigration claims the per-object migration slot for g, waiting for
// any in-flight move of the same object to finish first.
func (r *Runtime) lockMigration(g agas.GID) {
	for {
		r.migMu.Lock()
		ch, busy := r.migrations[g]
		if !busy {
			r.migrations[g] = make(chan struct{})
			r.migMu.Unlock()
			return
		}
		r.migMu.Unlock()
		<-ch
	}
}

// unlockMigration releases g's migration slot and wakes any waiter.
func (r *Runtime) unlockMigration(g agas.GID) {
	r.migMu.Lock()
	ch := r.migrations[g]
	delete(r.migrations, g)
	r.migMu.Unlock()
	close(ch)
}

// approxSize estimates an object's wire size for migration cost modelling.
func approxSize(v any) int {
	switch x := v.(type) {
	case []byte:
		return len(x)
	case []float64:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case string:
		return len(x)
	default:
		return 64
	}
}

// CallFrom invokes action on dest from locality src, returning a future
// homed at src that resolves with the action's result. This is the
// split-phase transaction at the heart of the model: the caller does not
// block; the parcel carries a continuation naming the future's reply slot
// (see reply.go). Its parcel's ID decides whether SLOW clocks it.
func (r *Runtime) CallFrom(src int, dest agas.GID, action string, args []byte) *lco.Future {
	r.checkResident(src)
	p := parcel.Acquire(dest, action, args, parcel.Continuation{Action: ActionLCOSet})
	reply, fut := r.openReply(src, dest, slowClock(p.ID))
	if reply.IsNil() {
		parcel.Release(p)
		return fut
	}
	p.Cont[0].Target = reply
	r.SendFrom(src, p)
	return fut
}
