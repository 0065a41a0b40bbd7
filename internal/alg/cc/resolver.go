package cc

import (
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
)

// RunResolver executes Awerbuch–Shiloach with the hooking write handled by
// an arbitrary cw.Resolver — the generic entry point used by the harness
// to count the atomic traffic of full CC runs (cw.NewCountingResolver) —
// under the machine's default execution backend. Prepare must have been
// called first; the resolver must be fresh and span the vertex set.
//
// Round ids passed to the resolver restart at 1 for every RunResolver
// call, so a CAS-LT-backed resolver must not be reused across calls
// (counting resolvers are per-experiment anyway).
func (k *Kernel) RunResolver(r cw.Resolver) Result {
	return k.RunResolverExec(k.m.Exec(), r)
}

// RunResolverExec is RunResolver under an explicit execution backend.
// Combined with ExecTrace it yields both the resolver's operation counts
// and the kernel's structural trace in one deterministic replay.
func (k *Kernel) RunResolverExec(e machine.Exec, r cw.Resolver) Result {
	if r.Len() < k.n {
		panic("cc: resolver smaller than the vertex set")
	}
	return k.runExec(e, r.Method(), r)
}
