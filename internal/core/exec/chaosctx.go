package exec

import (
	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/metrics"
)

// chaosCtx wraps another backend's Ctx so that every work-shared loop
// passes through the machine's chaos.Injector: per-worker stalls before
// and after loop iterations (the iteration is the claim-bearing unit —
// a stall after iteration i lands immediately before iteration i+1's
// claim), jitter at barrier arrival, and delays between claiming a steal
// chunk and executing it. The loss-driven faults (Gosched storms, sticky
// losers) do not live here: they fire from the metrics claim hook, which
// the machine wires when WithChaos is given.
//
// The wrapper is pure scheduling perturbation — it forwards every value
// and every body unchanged — so a kernel body cannot observe it except
// through timing. Run installs it around the team context when the
// machine carries an injector; the trace backend is never wrapped (its
// serial replay has no schedule to perturb).
type chaosCtx struct {
	inner Ctx
	inj   *chaos.Injector
}

func (c *chaosCtx) P() int      { return c.inner.P() }
func (c *chaosCtx) Worker() int { return c.inner.Worker() }

func (c *chaosCtx) For(n int, body func(i int)) {
	c.inner.ForWorker(n, func(i, w int) {
		c.inj.IterPre(w)
		body(i)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) ForWorker(n int, body func(i, w int)) {
	c.inner.ForWorker(n, func(i, w int) {
		c.inj.IterPre(w)
		body(i, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) Range(n int, body func(lo, hi, w int)) {
	c.inner.Range(n, func(lo, hi, w int) {
		c.inj.IterPre(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	c.inner.Bounds(bounds, func(lo, hi, w int) {
		c.inj.IterPre(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) StealRange(n int, body func(lo, hi, w int)) {
	c.inner.StealRange(n, func(lo, hi, w int) {
		c.inj.StealDelay(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) Barrier() {
	c.inj.BarrierJitter(c.inner.Worker())
	c.inner.Barrier()
}

func (c *chaosCtx) Single(f func())            { c.inner.Single(f) }
func (c *chaosCtx) Flag() *Flag                { return c.inner.Flag() }
func (c *chaosCtx) NextRound() uint32          { return c.inner.NextRound() }
func (c *chaosCtx) Metrics() *metrics.Recorder { return c.inner.Metrics() }
