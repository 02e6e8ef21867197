//go:build !debugpool

package transport

// poisonAliasDefault is whether TCP poisons aliased reads (see TCPConfig):
// off in normal builds (the scribble costs a pass over every received
// frame), on under the debugpool tag — the same tag that arms the parcel
// pool's poison mode — so one build flag arms every
// retained-buffer-detection tripwire at once.
const poisonAliasDefault = false
