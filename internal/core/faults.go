package core

import "sync"

// Faults injects node-level failures, for testing the delivery semantics
// the model implies. Nothing loses or repeats a parcel while its
// destination's node lives: the wire between nodes promises that, and a
// parcel between two localities of one node moves by pointer, so each
// parcel is dispatched once. The injected faults are therefore crashes and
// partitions only. Those knobs are deterministic: they count wire frames
// crossing this node's boundary and flip at an exact frame count, so a
// failing chaos run replays bit-for-bit from its counts.
type Faults struct {
	// KillNode/KillAfter crash node KillNode: once that node has seen
	// KillAfter wire frames (in plus out, counted at the runtime's frame
	// layer), every subsequent frame in either direction is silently
	// dropped — the process keeps running but goes mute, exactly what a
	// kill -9 looks like from the rest of the machine. Configure these on
	// the victim's own Config. KillAfter 0 disables.
	KillNode  int
	KillAfter int

	// PartitionA/PartitionB/PartitionAfter cut the link between two nodes:
	// once PartitionAfter frames have crossed the A<->B boundary (either
	// direction, counted at whichever endpoint carries this config), all
	// further A<->B frames are silently dropped both ways. Other links are
	// untouched. PartitionAfter 0 disables.
	PartitionA     int
	PartitionB     int
	PartitionAfter int
}

// KillPeerAfter returns a copy of f that crashes node after that node has
// seen n wire frames. Chainable value builder for test configs.
func (f Faults) KillPeerAfter(node, n int) Faults {
	f.KillNode, f.KillAfter = node, n
	return f
}

// PartitionPeersAfter returns a copy of f that symmetrically partitions
// nodes a and b after n frames have crossed their link.
func (f Faults) PartitionPeersAfter(a, b, n int) Faults {
	f.PartitionA, f.PartitionB, f.PartitionAfter = a, b, n
	return f
}

// faultState is the runtime's fault injector.
type faultState struct {
	mu        sync.Mutex
	cfg       Faults
	killCount int    // frames this node has seen toward KillAfter
	partCount int    // frames across the A<->B link toward PartitionAfter
	silenced  uint64 // frames silently destroyed by kill or partition
}

func newFaultState(cfg Faults) *faultState {
	if cfg.KillAfter == 0 && cfg.PartitionAfter == 0 {
		return nil
	}
	return &faultState{cfg: cfg}
}

// silence decides whether one wire frame between self and other (either
// direction) is destroyed by an armed crash or partition. It advances the
// deterministic frame counters, so every frame crossing this node's
// boundary must pass through exactly once.
func (f *faultState) silence(self, other int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	mute := false
	if f.cfg.KillAfter > 0 && self == f.cfg.KillNode {
		f.killCount++
		if f.killCount > f.cfg.KillAfter {
			mute = true
		}
	}
	if f.cfg.PartitionAfter > 0 &&
		((self == f.cfg.PartitionA && other == f.cfg.PartitionB) ||
			(self == f.cfg.PartitionB && other == f.cfg.PartitionA)) {
		f.partCount++
		if f.partCount > f.cfg.PartitionAfter {
			mute = true
		}
	}
	if mute {
		f.silenced++
	}
	return mute
}

// Silenced reports wire frames destroyed by an armed crash or partition.
func (r *Runtime) Silenced() uint64 {
	if r.faults == nil {
		return 0
	}
	r.faults.mu.Lock()
	defer r.faults.mu.Unlock()
	return r.faults.silenced
}
