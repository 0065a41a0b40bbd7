// Package graph provides the compressed-sparse-row graphs, random graph
// generators and serialization used by the paper's BFS and connected-
// components benchmarks.
//
// The paper evaluates on "randomly-generated undirected graphs" with up to
// 100K vertices and 30M edges (Figures 7-12). This package reproduces that
// input family (RandomUndirected / ConnectedRandom) and adds structured
// generators (grid, star, path, cycle, complete, R-MAT) useful for tests
// and for stressing the concurrent-write collision behaviour the paper
// analyses: stars maximize write collisions on the hub, paths minimize
// them.
package graph

import "fmt"

// Graph is an immutable directed multigraph in compressed-sparse-row form.
// Undirected graphs are represented by storing each edge in both
// directions; the builders in this package do this automatically.
//
// Vertex ids are uint32, matching the paper's kernels; a graph may hold up
// to 2^32-1 vertices and 2^32-1 directed arcs.
type Graph struct {
	offsets []uint32 // len = NumVertices+1; arc targets of v are targets[offsets[v]:offsets[v+1]]
	targets []uint32

	undirected bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumArcs returns the number of directed arcs stored (for an undirected
// graph, twice the number of edges).
func (g *Graph) NumArcs() int { return len(g.targets) }

// NumEdges returns the number of undirected edges if the graph was built
// undirected, else the number of directed arcs.
func (g *Graph) NumEdges() int {
	if g.undirected {
		return len(g.targets) / 2
	}
	return len(g.targets)
}

// Undirected reports whether the graph stores every edge in both
// directions.
func (g *Graph) Undirected() bool { return g.undirected }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's adjacency slice. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// Offsets returns the CSR offset array (length NumVertices+1). The slice
// aliases internal storage and must not be modified. It is exposed for
// kernels that, like the paper's Figure 3, walk `V[v] .. V[v+1]` directly.
func (g *Graph) Offsets() []uint32 { return g.offsets }

// Targets returns the CSR target array. The slice aliases internal storage
// and must not be modified.
func (g *Graph) Targets() []uint32 { return g.targets }

// ArcSource returns the source vertex of arc j (0 <= j < NumArcs()): the
// one v with offsets[v] <= j < offsets[v+1], found by binary search of the
// offsets. An arc-parallel loop calls it once per share and then walks
// forward source by source, so no per-arc source array is needed.
func (g *Graph) ArcSource(j int) int {
	lo, hi := 0, g.NumVertices() // offsets[lo] <= j < offsets[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if int(g.offsets[mid]) <= j {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Edge is one undirected edge (or directed arc) between U and V.
type Edge struct {
	U, V uint32
}

// FromEdges builds a CSR graph over n vertices from an edge list. When
// undirected is true every edge contributes arcs in both directions.
// Endpoints must be < n; self-loops and parallel edges are preserved
// (matching the Rodinia generator's behaviour).
func FromEdges(n int, edges []Edge, undirected bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	arcs := len(edges)
	if undirected {
		arcs *= 2
	}
	offsets := make([]uint32, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
		offsets[e.U+1]++
		if undirected {
			offsets[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]uint32, arcs)
	cursor := make([]uint32, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		targets[cursor[e.U]] = e.V
		cursor[e.U]++
		if undirected {
			targets[cursor[e.V]] = e.U
			cursor[e.V]++
		}
	}
	return &Graph{offsets: offsets, targets: targets, undirected: undirected}, nil
}

// MustFromEdges is FromEdges that panics on error, for tests and
// generators whose inputs are valid by construction.
func MustFromEdges(n int, edges []Edge, undirected bool) *Graph {
	g, err := FromEdges(n, edges, undirected)
	if err != nil {
		panic(err)
	}
	return g
}

// Edges reconstructs an edge list from the CSR form. For undirected graphs
// each edge is reported once, with U <= V for canonical ordering of
// distinct endpoints; self-loops are reported once per stored pair of arcs.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	n := g.NumVertices()
	selfSeen := 0
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			switch {
			case !g.undirected:
				out = append(out, Edge{uint32(v), u})
			case uint32(v) < u:
				out = append(out, Edge{uint32(v), u})
			case uint32(v) == u:
				// Each undirected self-loop stored as two arcs; emit every
				// second occurrence.
				selfSeen++
				if selfSeen%2 == 0 {
					out = append(out, Edge{u, u})
				}
			}
		}
	}
	return out
}
