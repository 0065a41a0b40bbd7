package barrier

import "sync/atomic"

// Sense is a sense-reversing barrier: one shared atomic arrival counter and
// a global sense word that flips each phase. Instead of goroutine-local
// sense (Go has no cheap goroutine-local storage), each Wait derives the
// sense that will end its phase from the shared sense word at entry. This is
// sound because a party reads the sense word before decrementing the arrival
// counter, and the flip can only happen after every party of the phase has
// decremented — so all parties of a phase agree on the release sense.
// Early arrivals wait for the flip through the barrier's Lot.
type Sense struct {
	parties int32
	count   atomic.Int32  // arrivals remaining in the current phase
	sense   atomic.Uint32 // flips 0/1 each phase
	lot     *Lot
}

// NewSense returns a sense-reversing barrier for the given party size whose
// waiters wait through lot.
func NewSense(parties int, lot *Lot) *Sense {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	b := &Sense{parties: int32(parties), lot: lot}
	b.count.Store(int32(parties))
	return b
}

// Parties returns the fixed party size.
func (b *Sense) Parties() int { return int(b.parties) }

// Wait blocks until all parties of the current phase have arrived. The
// worker id is ignored.
func (b *Sense) Wait(worker int) { b.Await(nil) }

// Await is Wait for a party that may give up: it returns false, before the
// phase completes, once abort is set (whoever sets it then wakes the lot).
// A party that gives up has still arrived, so an abandoned phase leaves the
// arrival count short; Reset restores it once every party has left.
func (b *Sense) Await(abort *atomic.Bool) bool {
	local := b.sense.Load() ^ 1 // the sense value that ends this phase
	if b.count.Add(-1) == 0 {
		// Last arrival: reset the count for the next phase, then flip the
		// sense to release the waiters. Order matters — count must be
		// ready before anyone leaves.
		b.count.Store(b.parties)
		b.sense.Store(local)
		b.lot.Wake()
		return true
	}
	return b.lot.Await(&b.sense, local, abort)
}

// Reset restores the arrival count after an abandoned phase. No party may
// be inside the barrier.
func (b *Sense) Reset() { b.count.Store(b.parties) }
