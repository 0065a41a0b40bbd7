package kernel

import (
	"strconv"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/graph"
	"crcwpram/internal/race"
)

// NamedWorkload pairs a differential workload with the name error
// messages and progress output use.
type NamedWorkload struct {
	Name string
	W    Workload
}

// matrixSeed feeds the randomized kernels in the differential workloads.
const matrixSeed = 7

// MatrixWorkloads builds the fixed differential workloads for a
// descriptor's input kind. Graph kernels get a deep narrow grid (many
// rounds, tiny frontiers: about 500 BFS levels of 1–4 vertices, so the
// frontier kernels' push levels run on one worker), a skewed RMAT graph,
// and a disconnected graph; list kernels a 300-element list with a late
// maximum and duplicates; chain kernels lists covering the n=1 / n=2 edge
// cases plus a pointer-jumping-boundary 257 and a bulk 2000. The grid
// stays first: chaosInput picks the RMAT graph by index.
func MatrixWorkloads(d *Descriptor) []NamedWorkload {
	switch d.Input {
	case InputList:
		list := make([]uint32, 300)
		for i := range list {
			list[i] = uint32((i * 131) % 197)
		}
		return []NamedWorkload{{"list300", Workload{List: list, Seed: matrixSeed}}}
	case InputChain:
		var out []NamedWorkload
		for _, n := range []int{1, 2, 257, 2000} {
			out = append(out, NamedWorkload{
				"chain" + strconv.Itoa(n),
				Workload{Next: Chain(n, matrixSeed), Seed: matrixSeed},
			})
		}
		return out
	default:
		return []NamedWorkload{
			{"grid500x4", Workload{Graph: graph.Grid2D(500, 4), Seed: matrixSeed}},
			{"rmat", Workload{Graph: graph.RMAT(7, 600, 0.57, 0.19, 0.19, 9), Seed: matrixSeed}},
			{"disjoint", Workload{Graph: graph.Disjoint(graph.ConnectedRandom(60, 220, 5), 3), Seed: matrixSeed}},
		}
	}
}

// Chain builds a deterministic successor-pointer list of n nodes whose
// storage order is a seeded permutation of the list order (so chunked
// workers see scattered successors).
func Chain(n int, seed uint64) []uint32 {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	s := seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := n - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	if n > 0 {
		next[perm[n-1]] = ^uint32(0)
	}
	return next
}

// matrixMethods returns the methods the differential engine drives for d:
// the full declared axis, minus Naive under the race detector (its benign
// races are exactly what the detector flags). Methodless kernels run once
// with the zero method.
func matrixMethods(d *Descriptor) []cw.Method {
	if len(d.Methods) == 0 {
		return []cw.Method{0}
	}
	out := make([]cw.Method, 0, len(d.Methods))
	for _, m := range d.Methods {
		if m == cw.Naive && race.Enabled {
			continue
		}
		out = append(out, m)
	}
	return out
}

// reprMethod picks the single method the repr, balance and relabel
// variants pin while sweeping their own axis: CAS-LT when the kernel
// supports it, the zero method otherwise.
func reprMethod(d *Descriptor) cw.Method {
	if len(d.Methods) == 0 || d.SupportsMethod(cw.CASLT) {
		return cw.CASLT
	}
	return d.Methods[0]
}
