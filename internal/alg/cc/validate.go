package cc

import (
	"fmt"

	"crcwpram/internal/graph"
)

// Validate checks a CC result against the graph:
//
//  1. the labelling is a fixed point (Labels[Labels[v]] == Labels[v]) with
//     roots labelled by themselves;
//  2. the partition induced by Labels equals the true connectivity
//     partition (via SequentialLabels);
//  3. the recorded hook arcs form a spanning forest: exactly
//     n - #components arcs, and union-find over just those arcs reproduces
//     the same partition. This is the end-to-end witness that every
//     committed (parent, edge) tuple was untorn — a torn tuple would record
//     an arc that does not justify its merge.
//
// Validate returns nil if the result is consistent.
func Validate(g *graph.Graph, r Result) error {
	n := g.NumVertices()
	if len(r.Labels) != n || len(r.HookEdge) != n {
		return fmt.Errorf("cc: result arrays sized %d/%d, want %d", len(r.Labels), len(r.HookEdge), n)
	}
	for v := 0; v < n; v++ {
		l := r.Labels[v]
		if int(l) >= n {
			return fmt.Errorf("cc: label[%d] = %d out of range", v, l)
		}
		if r.Labels[l] != l {
			return fmt.Errorf("cc: label[%d] = %d is not a root (label[%d] = %d)", v, l, l, r.Labels[l])
		}
	}

	want := SequentialLabels(g)
	// Two labellings induce the same partition iff the mapping between
	// them is a bijection on observed pairs.
	fwd := make(map[uint32]uint32)
	rev := make(map[uint32]uint32)
	for v := 0; v < n; v++ {
		got, exp := r.Labels[v], want[v]
		if prev, ok := fwd[got]; ok && prev != exp {
			return fmt.Errorf("cc: label %d spans true components %d and %d", got, prev, exp)
		}
		if prev, ok := rev[exp]; ok && prev != got {
			return fmt.Errorf("cc: true component %d split into labels %d and %d", exp, prev, got)
		}
		fwd[got] = exp
		rev[exp] = got
	}

	// Spanning-forest check over the hook records.
	components := len(rev)
	hooks := 0
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	targets := g.Targets()
	for v := 0; v < n; v++ {
		e := r.HookEdge[v]
		if e == NoHook {
			continue
		}
		hooks++
		if int(e) >= g.NumArcs() {
			return fmt.Errorf("cc: hookEdge[%d] = %d out of range", v, e)
		}
		src := uint32(g.ArcSource(int(e)))
		dst := targets[e]
		a, b := find(src), find(dst)
		if a == b {
			return fmt.Errorf("cc: hook arcs contain a cycle at vertex %d (arc %d-%d)", v, src, dst)
		}
		parent[a] = b
	}
	if hooks != n-components {
		return fmt.Errorf("cc: %d hook records for %d vertices in %d components, want %d", hooks, n, components, n-components)
	}
	// The forest must reproduce the exact partition: every vertex connects
	// to its label through hook arcs alone.
	for v := 0; v < n; v++ {
		if find(uint32(v)) != find(r.Labels[v]) {
			return fmt.Errorf("cc: hook forest does not connect %d to its label %d", v, r.Labels[v])
		}
	}
	return nil
}
