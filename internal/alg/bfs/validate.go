package bfs

import (
	"fmt"

	"crcwpram/internal/graph"
)

// Validate checks a BFS result against the graph. Levels are compared to
// the exact Sequential levels. Parent/edge consistency is checked for every
// reached non-source vertex:
//
//   - the parent must itself be reached, one level above;
//   - strict (selection methods, exactly-one-winner): SelEdge[u] must be an
//     arc out of Parent[u] whose target is u — the tuple is untorn;
//   - non-strict (the naive method): Parent[u] must merely be *some*
//     neighbor of u at level[u]-1; SelEdge[u] must be *some* arc reaching u
//     from a vertex at level[u]-1, but the two fields need not agree,
//     because the naive method can commit a torn tuple.
//
// Validate returns nil if the result is consistent.
func Validate(g *graph.Graph, source uint32, r Result, strict bool) error {
	n := g.NumVertices()
	if len(r.Level) != n || len(r.Parent) != n || len(r.SelEdge) != n {
		return fmt.Errorf("bfs: result arrays sized %d/%d/%d, want %d", len(r.Level), len(r.Parent), len(r.SelEdge), n)
	}
	want := Sequential(g, source)
	if r.Depth != want.Depth {
		return fmt.Errorf("bfs: depth %d, want %d", r.Depth, want.Depth)
	}
	offsets, targets := g.Offsets(), g.Targets()
	for u := 0; u < n; u++ {
		if r.Level[u] != want.Level[u] {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", u, r.Level[u], want.Level[u])
		}
		if uint32(u) == source {
			if r.Level[u] != 0 {
				return fmt.Errorf("bfs: source level %d", r.Level[u])
			}
			continue
		}
		if r.Level[u] == Unreached {
			if r.Parent[u] != Unreached || r.SelEdge[u] != Unreached {
				return fmt.Errorf("bfs: unreached vertex %d has parent %d / edge %d", u, r.Parent[u], r.SelEdge[u])
			}
			continue
		}
		p := r.Parent[u]
		if p == Unreached || int(p) >= n {
			return fmt.Errorf("bfs: reached vertex %d has invalid parent %d", u, p)
		}
		if r.Level[p] != r.Level[u]-1 {
			return fmt.Errorf("bfs: parent[%d] = %d at level %d, want level %d", u, p, r.Level[p], r.Level[u]-1)
		}
		e := r.SelEdge[u]
		if e == Unreached || int(e) >= g.NumArcs() {
			return fmt.Errorf("bfs: reached vertex %d has invalid selEdge %d", u, e)
		}
		if targets[e] != uint32(u) {
			return fmt.Errorf("bfs: selEdge[%d] = %d targets %d, not %d", u, e, targets[e], u)
		}
		if strict {
			// The arc must come out of the recorded parent: tuple untorn.
			if e < offsets[p] || e >= offsets[p+1] {
				return fmt.Errorf("bfs: selEdge[%d] = %d is not an arc of parent %d (torn tuple)", u, e, p)
			}
		} else {
			// The arc's source must be at the previous level; find it.
			src := g.ArcSource(int(e))
			if r.Level[src] != r.Level[u]-1 {
				return fmt.Errorf("bfs: selEdge[%d] = %d comes from %d at level %d, want level %d",
					u, e, src, r.Level[src], r.Level[u]-1)
			}
			// Parent must be a neighbor of u at the previous level.
			ok := false
			for j := offsets[u]; j < offsets[u+1]; j++ {
				if targets[j] == p {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("bfs: parent[%d] = %d is not a neighbor of %d", u, p, u)
			}
		}
	}
	return nil
}

// ValidateBidir checks a result whose discoveries may have been made in
// either traversal direction — the pull and hybrid variants. Levels,
// parent reachability and parent level are checked exactly as in strict
// Validate; the untorn-tuple check accepts either arc orientation for
// SelEdge[u]: the arc parent→u (a push discovery) or the arc u→parent (a
// pull discovery records the arc its own scan examined). In both cases the
// (Parent, SelEdge) pair must agree on one edge, so a torn tuple still
// fails.
func ValidateBidir(g *graph.Graph, source uint32, r Result) error {
	n := g.NumVertices()
	if len(r.Level) != n || len(r.Parent) != n || len(r.SelEdge) != n {
		return fmt.Errorf("bfs: result arrays sized %d/%d/%d, want %d", len(r.Level), len(r.Parent), len(r.SelEdge), n)
	}
	want := Sequential(g, source)
	if r.Depth != want.Depth {
		return fmt.Errorf("bfs: depth %d, want %d", r.Depth, want.Depth)
	}
	offsets, targets := g.Offsets(), g.Targets()
	for u := 0; u < n; u++ {
		if r.Level[u] != want.Level[u] {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", u, r.Level[u], want.Level[u])
		}
		if uint32(u) == source {
			continue
		}
		if r.Level[u] == Unreached {
			if r.Parent[u] != Unreached || r.SelEdge[u] != Unreached {
				return fmt.Errorf("bfs: unreached vertex %d has parent %d / edge %d", u, r.Parent[u], r.SelEdge[u])
			}
			continue
		}
		p := r.Parent[u]
		if p == Unreached || int(p) >= n {
			return fmt.Errorf("bfs: reached vertex %d has invalid parent %d", u, p)
		}
		if r.Level[p] != r.Level[u]-1 {
			return fmt.Errorf("bfs: parent[%d] = %d at level %d, want level %d", u, p, r.Level[p], r.Level[u]-1)
		}
		e := r.SelEdge[u]
		if e == Unreached || int(e) >= g.NumArcs() {
			return fmt.Errorf("bfs: reached vertex %d has invalid selEdge %d", u, e)
		}
		pushArc := e >= offsets[p] && e < offsets[p+1] && targets[e] == uint32(u)
		pullArc := e >= offsets[u] && e < offsets[u+1] && targets[e] == p
		if !pushArc && !pullArc {
			return fmt.Errorf("bfs: selEdge[%d] = %d matches neither arc %d->%d nor %d->%d (torn tuple)",
				u, e, p, u, u, p)
		}
	}
	return nil
}
