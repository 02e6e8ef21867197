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
	// consume the maxHops forwarding budget: it is the migration holding
	// the parcel, not a mis-route, and each re-park requires another
	// in-flight migration, which bounds the cycle on its own.
	r.fences.close(g)
	err = r.migrateLocked(g, from, to, gen+1)
	for _, pk := range r.fences.open(g) {
		r.runHanded(r.route(pk.loc, pk.p, false))
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
		p := parcel.Acquire(r.LocalityGID(to), ActionAGASInstall, nil, parcel.Continuation{Action: ActionLCOSet})
		a := p.OwnArgs().GID(g).Uint64(newGen).Int64(int64(destNode))
		if err := a.Value(v); err != nil {
			parcel.Release(p)
			r.loc(from).Store().Put(g, v)
			return fmt.Errorf("core: migrate of %v: payload not wire-encodable: %w", g, err)
		}
		p.Args = a.Encode()
		unconfirmed, err := r.agasCall(from, p)
		if err != nil && !unconfirmed {
			// The destination provably does not have the object: reinstall.
			r.loc(from).Store().Put(g, v)
			return fmt.Errorf("core: migrate of %v to L%d: %w", g, to, err)
		}
		if err != nil {
			// Ambiguous (unconfirmed install): the destination may hold the
			// object, so reinstalling could duplicate it. Commit forward and
			// record.
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
	if r.nodeOf(int(g.Home)) == r.NodeID() {
		commitErr = r.agas.CommitMigration(g, to, newGen)
	} else {
		p := parcel.Acquire(r.LocalityGID(int(g.Home)), ActionAGASCommit, nil, parcel.Continuation{Action: ActionLCOSet})
		p.Args = p.OwnArgs().GID(g).Int64(int64(to)).Uint64(newGen).Encode()
		if _, err := r.agasCall(from, p); err != nil {
			r.recordError(fmt.Errorf("core: migrate of %v: directory commit: %w", g, err))
		}
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

// migrateVerdictBound bounds a migration's wait for the verdict of its
// install or its directory commit. A death fails the call sooner, but a
// fixed machine (no membership) never declares one, and Shutdown waits for
// the balancer's move.
const migrateVerdictBound = 10 * time.Second

// agasCall calls a built-in AGAS action from resident locality src and
// waits for its verdict: p targets a locality's hardware name, and its one
// continuation awaits the reply name. The reply slot's dep is the target
// node, so the verdict is the action's result or error, or the node-lost
// failure when that node dies; either way a failed call was not applied.
// A call still unanswered after migrateVerdictBound is reported
// unconfirmed, as it may have been applied, and its slot is taken back, so
// a late reply counts in px.reply.stale.
func (r *Runtime) agasCall(src int, p *parcel.Parcel) (unconfirmed bool, err error) {
	action, dest := p.Action, p.Dest
	reply, fut := r.call(src, p, time.Time{}, false)
	select {
	case <-fut.Done():
	case <-time.After(migrateVerdictBound):
		if _, ok := r.replies[src].take(r.NodeID(), reply.Seq); ok {
			return true, fmt.Errorf("core: %s on %v unconfirmed after %v", action, dest, migrateVerdictBound)
		}
		// Whoever took the slot first is settling the future.
	}
	_, err = fut.Get()
	return false, err
}

// agasInstall is px.agas.install, a migration's payload push, called on
// the hardware name of the destination locality: it puts the object in
// that locality's store and records the import, so parcels already routed
// here resolve to it at once. Its args are the GID, the generation, the
// node the sender expects to host the locality, and the object's value
// record. An install that reaches another node — the locality was
// re-homed by a death the sender had not heard of — is refused: the
// sender's reply slot tracks only the node it named, so a rollback after
// that node's death would duplicate an object installed here.
func agasInstall(ctx *Context, _ any, args *parcel.Reader) (any, error) {
	r, to := ctx.rt, ctx.loc
	g, gen, node := args.GID(), args.Uint64(), int(args.Int64())
	raw := args.BytesAliased()
	if err := args.Err(); err != nil {
		return nil, err
	}
	if node != r.NodeID() {
		return nil, fmt.Errorf("locality %d is not hosted by node %d", to, node)
	}
	v, err := parcel.DecodeAny(raw)
	if err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	r.loc(to).Store().Put(g, v)
	r.agas.DropForward(g)
	r.agas.SetImport(g, to, gen)
	// The sender just placed this object here: the local balancer defers
	// to that decision for a cooldown before re-judging it.
	r.coolBalance(g)
	return nil, nil
}

// agasCommit is px.agas.commit, called on the hardware name of a migrated
// object's home locality: it commits the new owner in this node's
// authoritative directory. Its args are the GID, the new owner and the
// generation.
func agasCommit(ctx *Context, _ any, args *parcel.Reader) (any, error) {
	g, to, gen := args.GID(), int(args.Int64()), args.Uint64()
	if err := args.Err(); err != nil {
		return nil, err
	}
	if to < 0 || to >= ctx.rt.Localities() {
		return nil, fmt.Errorf("locality %d outside machine", to)
	}
	return nil, ctx.rt.agas.CommitMigration(g, to, gen)
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
	return r.callFrom(src, dest, action, args, false)
}

// callFrom is CallFrom; noWait marks a caller that must not wait (see
// sendFrom).
func (r *Runtime) callFrom(src int, dest agas.GID, action string, args []byte, noWait bool) *lco.Future {
	r.checkResident(src)
	p := parcel.Acquire(dest, action, args, parcel.Continuation{Action: ActionLCOSet})
	_, fut := r.call(src, p, slowClock(p.ID), noWait)
	return fut
}

// call sends p from resident locality src with a fresh reply slot's name
// as the target of its one continuation, and returns that name and the
// slot's future; a nil name means the future has already failed and p was
// not sent. start is the slot's latency clock (openReply).
func (r *Runtime) call(src int, p *parcel.Parcel, start time.Time, noWait bool) (agas.GID, *lco.Future) {
	reply, fut := r.openReply(src, p.Dest, start)
	if reply.IsNil() {
		parcel.Release(p)
	} else {
		p.Cont[0].Target = reply
		r.sendFrom(src, p, noWait)
	}
	return reply, fut
}
