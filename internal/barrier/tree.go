package barrier

import "sync/atomic"

// treeFanIn is the arrival-tree radix. Fan-in 4 is the classic compromise:
// contention per node stays low while the tree stays shallow.
const treeFanIn = 4

type treeNode struct {
	count  atomic.Int32
	sense  atomic.Uint32
	init   int32
	parent *treeNode
	_      [CachePad]byte
}

// CachePad pads tree nodes to separate cache lines.
const CachePad = 40

// Tree is a static arrival-tree barrier: workers are grouped into nodes of
// fan-in 4; the last arrival at a node propagates to the parent, and the
// arrival at the root flips a global sense that releases every waiter.
// Per-phase coherence traffic is O(P/fanIn) lines instead of all P parties
// hammering one line.
//
// Unlike Central and Sense, Tree assigns each worker a fixed leaf slot, so
// the worker id passed to Wait selects the arrival leaf and must be the
// caller's stable id in [0, Parties()). Early arrivals wait for the flip
// through the barrier's Lot.
type Tree struct {
	parties int
	leaves  []*treeNode // leaf node per worker id
	root    *treeNode
	sense   atomic.Uint32 // global release sense
	lot     *Lot
}

// NewTree returns a tree barrier for the given party size whose waiters
// wait through lot.
func NewTree(parties int, lot *Lot) *Tree {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	b := &Tree{parties: parties, lot: lot}

	// Build the bottom level: one node per fan-in group of workers.
	level := make([]*treeNode, 0, (parties+treeFanIn-1)/treeFanIn)
	b.leaves = make([]*treeNode, parties)
	for base := 0; base < parties; base += treeFanIn {
		n := &treeNode{}
		width := min(treeFanIn, parties-base)
		n.init = int32(width)
		n.count.Store(n.init)
		for w := base; w < base+width; w++ {
			b.leaves[w] = n
		}
		level = append(level, n)
	}
	// Reduce levels until a single root remains.
	for len(level) > 1 {
		next := make([]*treeNode, 0, (len(level)+treeFanIn-1)/treeFanIn)
		for base := 0; base < len(level); base += treeFanIn {
			n := &treeNode{}
			width := min(treeFanIn, len(level)-base)
			n.init = int32(width)
			n.count.Store(n.init)
			for c := base; c < base+width; c++ {
				level[c].parent = n
			}
			next = append(next, n)
		}
		level = next
	}
	b.root = level[0]
	return b
}

// Parties returns the fixed party size.
func (b *Tree) Parties() int { return b.parties }

// Wait blocks worker id (0 <= worker < Parties()) until all parties of the
// current phase have arrived.
func (b *Tree) Wait(worker int) {
	local := b.sense.Load() ^ 1
	b.arrive(b.leaves[worker])
	b.lot.Await(&b.sense, local, nil)
}

func (b *Tree) arrive(n *treeNode) {
	if n.count.Add(-1) != 0 {
		return
	}
	// Last arrival at this node: reset it for the next phase and continue
	// upward; at the root, flip the global sense to release everyone.
	n.count.Store(n.init)
	if n.parent != nil {
		b.arrive(n.parent)
		return
	}
	b.sense.Store(b.sense.Load() ^ 1)
	b.lot.Wake()
}
