// Package barrier provides reusable synchronization barriers for a fixed
// party of workers. A barrier is the synchronization point the paper
// requires between a concurrent-write step and any dependent read: PRAM
// lock-step semantics are recovered on an asynchronous machine by placing a
// barrier between rounds (Ghanim et al., ICPP 2021, Section 4, following
// ICE/XMT practice).
//
// Three classic constructions are provided so the PRAM machine can be
// ablated over its synchronization substrate:
//
//   - Central: a mutex + condition variable counter barrier. Simple, one
//     cache line of state, O(P) serialized updates per phase; early
//     arrivals sleep at once.
//   - SenseReversing: a single atomic counter plus a phase "sense" flag
//     that flips each phase. The standard high-performance choice on small
//     core counts.
//   - Tree: a static arrival tree of sense-reversing nodes with fan-in 4,
//     reducing contention to O(log P) per-line traffic on large parties.
//
// Sense and Tree waiters follow the package's one wait policy (Lot): spin
// on plain loads, then yield, then park once the wait has lasted about a
// millisecond. The spin phase is short unless Lot.Calibrate finds that
// every party can hold a P of its own. It is OpenMP's
// OMP_WAIT_POLICY/GOMP_SPINCOUNT split: active within a kernel, asleep
// when idle. A Lot can serve a barrier and other waits at once, which is
// how the machine routes every wait inside a region through one lot.
//
// All barriers implement the Barrier interface and are reusable: Wait may be
// called any number of phases in a row by exactly the fixed party size.
package barrier

// Barrier synchronizes a fixed party of workers. Wait blocks until all
// parties of the current phase have arrived, then releases them together.
// The same parties must call Wait in every phase; a Barrier is not a
// one-shot WaitGroup.
type Barrier interface {
	// Wait blocks worker (0 <= worker < Parties()) until all parties have
	// arrived at the current phase. Central and Sense ignore the worker
	// id; Tree uses it to pick the worker's arrival leaf.
	Wait(worker int)
	// Parties returns the fixed party size.
	Parties() int
}

// Kind selects a barrier construction.
type Kind int

const (
	// KindCentral is the mutex + condvar counter barrier.
	KindCentral Kind = iota
	// KindSense is the sense-reversing atomic barrier.
	KindSense
	// KindTree is the fan-in-4 arrival tree of sense-reversing nodes.
	KindTree
)

func (k Kind) String() string {
	switch k {
	case KindCentral:
		return "central"
	case KindSense:
		return "sense"
	case KindTree:
		return "tree"
	default:
		return "unknown-barrier"
	}
}

// Kinds lists all constructions in presentation order.
var Kinds = []Kind{KindCentral, KindSense, KindTree}

// ParseKind converts a kind name (as produced by String) back to a Kind.
func ParseKind(s string) (Kind, bool) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// New returns a barrier of the given kind for the given party size.
// parties must be >= 1. Sense and Tree waiters wait through a Lot of
// their own, at the short spin budget.
func New(k Kind, parties int) Barrier {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	switch k {
	case KindCentral:
		return NewCentral(parties)
	case KindSense:
		return NewSense(parties, NewLot())
	case KindTree:
		return NewTree(parties, NewLot())
	default:
		panic("barrier: unknown kind " + k.String())
	}
}
