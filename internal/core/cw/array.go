package cw

// CacheLineBytes is the assumed size of one cache line, used by the padded
// array layouts. 64 bytes is correct for every x86 part the paper targets
// and for the large majority of 64-bit ARM parts.
const CacheLineBytes = 64

// Layout selects the memory layout of an auxiliary-word array.
type Layout int

const (
	// Packed stores one 4-byte auxiliary word per element, the layout used
	// by the paper's kernels (`unsigned RoundWritten[N]`). Sixteen cells
	// share a cache line, so claims on neighbouring cells contend.
	Packed Layout = iota
	// PaddedLayout stores each auxiliary word on its own cache line,
	// eliminating false sharing at a 16x memory cost. Provided for the
	// padding ablation.
	PaddedLayout
)

// String names the layout ("packed", "padded").
func (l Layout) String() string {
	switch l {
	case Packed:
		return "packed"
	case PaddedLayout:
		return "padded"
	default:
		return "unknown-layout"
	}
}

// layoutStride returns the element spacing, in Cell-sized (4-byte) units,
// of the given layout: 1 for Packed, one cell per cache line for
// PaddedLayout. Both array types below store their cells in a single slice
// indexed i*stride, so the per-access layout decision is a multiply rather
// than a branch — the claim loops of every kernel go through Cell/Gate on
// each probe, and the old two-slice representation re-tested `padded != nil`
// on every one of them.
func layoutStride(layout Layout) int {
	if layout == PaddedLayout {
		return CacheLineBytes / 4
	}
	return 1
}

// Array is a fixed-size array of CAS-LT cells, one per concurrent-write
// target, in either packed or cache-line-padded layout. It is what a kernel
// allocates as `unsigned RoundWritten[N]` in the paper's Figure 3(a).
type Array struct {
	cells  []Cell
	n      int
	stride int
}

// NewArray returns an n-cell array in the given layout, with every cell in
// the never-written state.
func NewArray(n int, layout Layout) *Array {
	stride := layoutStride(layout)
	return &Array{cells: make([]Cell, n*stride), n: n, stride: stride}
}

// Len returns the number of cells.
func (a *Array) Len() int { return a.n }

// Cell returns cell i.
func (a *Array) Cell(i int) *Cell { return &a.cells[i*a.stride] }

// TryClaim applies Cell.TryClaim to cell i.
func (a *Array) TryClaim(i int, round uint32) bool { return a.Cell(i).TryClaim(round) }

// Claim applies Cell.Claim to cell i.
func (a *Array) Claim(i int, round uint32) bool { return a.Cell(i).Claim(round) }

// Written reports whether cell i was claimed in the given round. Only
// meaningful after a synchronization point.
func (a *Array) Written(i int, round uint32) bool { return a.Cell(i).Written(round) }

// ResetRange returns cells [lo, hi) to the never-written state. CAS-LT
// kernels do not need this between rounds; it exists for recycling arrays
// across independent kernel executions. Callers may shard the range over
// workers; distinct shards touch distinct cells.
func (a *Array) ResetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		a.Cell(i).Reset()
	}
}

// Reset returns every cell to the never-written state: ResetRange over
// the whole array, which is what a machine's round-id rewind applies to
// the arrays declared with Machine.Stamp.
func (a *Array) Reset() { a.ResetRange(0, a.n) }

// GateArray is a fixed-size array of gatekeeper words, the
// `unsigned gatekeeper[N]` of the paper's Figure 3(b).
type GateArray struct {
	gates  []Gate
	n      int
	stride int
}

// NewGateArray returns an n-gate array in the given layout with every gate
// open.
func NewGateArray(n int, layout Layout) *GateArray {
	stride := layoutStride(layout)
	return &GateArray{gates: make([]Gate, n*stride), n: n, stride: stride}
}

// Len returns the number of gates.
func (g *GateArray) Len() int { return g.n }

// Gate returns gate i.
func (g *GateArray) Gate(i int) *Gate { return &g.gates[i*g.stride] }

// TryEnter applies Gate.TryEnter to gate i.
func (g *GateArray) TryEnter(i int) bool { return g.Gate(i).TryEnter() }

// TryEnterChecked applies Gate.TryEnterChecked to gate i.
func (g *GateArray) TryEnterChecked(i int) bool { return g.Gate(i).TryEnterChecked() }

// ResetRange re-opens gates [lo, hi). This is the per-round
// re-initialization pass of the gatekeeper method (Figure 3(b) lines 34-35);
// kernels shard it across workers between a barrier and the next round.
func (g *GateArray) ResetRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		g.Gate(i).Reset()
	}
}
