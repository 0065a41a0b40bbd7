package barrier

import "sync"

// Central is the textbook counter barrier: a mutex-protected arrival count
// and a condition variable on which early arrivals sleep. The last arrival
// of each phase advances the generation and broadcasts.
//
// Central is the most portable construction. Its early arrivals sleep at
// once, with no spin or yield phase, so a wait costs no CPU but every phase
// pays a wake-up; Sense and Tree waiters sleep too, but only once the wait
// policy's spin and yield phases have run out (see Lot). Every phase also
// pays O(P) serialized lock acquisitions.
type Central struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

// NewCentral returns a central barrier for the given party size.
func NewCentral(parties int) *Central {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	b := &Central{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties returns the fixed party size.
func (b *Central) Parties() int { return b.parties }

// Wait blocks until all parties of the current phase have arrived. The
// worker id is ignored.
func (b *Central) Wait(worker int) {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		// Last arrival: open the next phase and release everyone.
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
