package cc

import (
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
)

// RunResolver executes Awerbuch–Shiloach with the hooking write handled by
// an arbitrary cw.Resolver — the generic entry point the chaos matrix's
// sticky-loser leg drives — under the machine's default execution backend.
// Prepare must have been called first; the resolver must be fresh and span
// the vertex set: its cells are not declared to the machine
// (Machine.Stamp), so a rewind of the round ids between two calls would
// leave a reused CAS-LT resolver's stamps outranking the new ids.
func (k *Kernel) RunResolver(r cw.Resolver) Result {
	return k.RunResolverExec(k.m.Exec(), r)
}

// RunResolverExec is RunResolver under an explicit execution backend.
func (k *Kernel) RunResolverExec(e machine.Exec, r cw.Resolver) Result {
	if r.Len() < k.n {
		panic("cc: resolver smaller than the vertex set")
	}
	return k.runExec(e, r.Method(), r)
}
