package evtrace

import (
	"math/bits"
	"sort"
)

// ClaimHistBuckets is the number of log2 buckets in a round summary's
// claim-rate histogram: bucket 0 holds workers that executed no claims
// in the round, bucket k (1 <= k < ClaimHistBuckets-1) holds workers
// with [2^(k-1), 2^k) claims, and the last bucket holds everything
// beyond.
const ClaimHistBuckets = 10

// ClaimBucket returns the histogram bucket for a worker's per-round
// executed-claim count.
func ClaimBucket(claims uint64) int {
	if claims == 0 {
		return 0
	}
	b := bits.Len64(claims)
	if b > ClaimHistBuckets-1 {
		return ClaimHistBuckets - 1
	}
	return b
}

// RoundSummary aggregates one round's KindRound spans: when every
// worker's span for the round is in the timeline, it answers the
// paper's per-round questions — which worker set the round's wall time
// (the critical path), how skewed the barrier arrivals were, and how
// the executed claims were distributed over workers.
type RoundSummary struct {
	// Round is the region-local loop index of the round's spans.
	Round uint32
	// StartNs and EndNs bound the round's work spans (epoch-relative).
	StartNs, EndNs int64
	// CritWorker is the worker with the longest work span — the round's
	// critical path — and CritNs its duration.
	CritWorker int
	CritNs     int64
	// BarrierSkewNs is the spread of work-span completion times (latest
	// minus earliest): the imbalance the closing barrier absorbs.
	BarrierSkewNs int64
	// Wins and Losses total the round's executed claim outcomes.
	Wins, Losses uint64
	// ClaimHist is the log2 histogram of per-worker executed claims in
	// the round (see ClaimBucket).
	ClaimHist [ClaimHistBuckets]uint32
	// Workers counts the work spans aggregated (under ring wraparound a
	// round may have lost some workers' spans).
	Workers int
}

// Timeline is the drained, merged view of a recorder: all surviving
// events sorted by start time, plus per-round summaries over the
// KindRound spans.
type Timeline struct {
	// P is the number of worker tracks.
	P int
	// Spans holds every surviving event sorted by Start (ties by
	// Worker).
	Spans []Event
	// Rounds holds one summary per round id seen in KindRound spans,
	// sorted by round id.
	Rounds []RoundSummary
	// Wins and Losses total the executed claim outcomes over the whole
	// recording (from the live counters, so they include claims whose
	// sampled events were dropped).
	Wins, Losses uint64
	// Dropped counts events lost to ring wraparound.
	Dropped uint64
}

// Drain collects every ring into a Timeline. Call at a synchronization
// point (no region in flight), like metrics.Recorder.Snapshot. Draining
// does not clear the rings; use Reset for that. Nil-safe (empty
// timeline).
func (r *Recorder) Drain() *Timeline {
	if r == nil {
		return &Timeline{}
	}
	t := &Timeline{P: len(r.bufs)}
	for w := range r.bufs {
		b := &r.bufs[w]
		n := b.n.Load()
		c := uint64(len(b.events))
		if n <= c {
			t.Spans = append(t.Spans, b.events[:n]...)
		} else {
			// Wrapped: the oldest surviving event is at n%c.
			t.Dropped += n - c
			t.Spans = append(t.Spans, b.events[n%c:]...)
			t.Spans = append(t.Spans, b.events[:n%c]...)
		}
		t.Wins += b.wins.Load()
		t.Losses += b.losses.Load()
	}
	sort.SliceStable(t.Spans, func(i, j int) bool {
		if t.Spans[i].Start != t.Spans[j].Start {
			return t.Spans[i].Start < t.Spans[j].Start
		}
		return t.Spans[i].Worker < t.Spans[j].Worker
	})
	t.Rounds = summarize(t.Spans)
	return t
}

// summarize groups KindRound spans by round id into per-round
// summaries.
func summarize(spans []Event) []RoundSummary {
	byRound := map[uint32]*RoundSummary{}
	for _, ev := range spans {
		if ev.Kind != KindRound {
			continue
		}
		rs := byRound[ev.Round]
		if rs == nil {
			rs = &RoundSummary{Round: ev.Round, StartNs: ev.Start, EndNs: ev.Start + ev.Dur}
			byRound[ev.Round] = rs
		}
		end := ev.Start + ev.Dur
		if ev.Start < rs.StartNs {
			rs.StartNs = ev.Start
		}
		if end > rs.EndNs {
			rs.EndNs = end
		}
		if ev.Dur > rs.CritNs || rs.Workers == 0 {
			rs.CritNs = ev.Dur
			rs.CritWorker = int(ev.Worker)
		}
		w, l := UnpackClaims(ev.Arg)
		rs.Wins += w
		rs.Losses += l
		rs.ClaimHist[ClaimBucket(w+l)]++
		rs.Workers++
	}
	out := make([]RoundSummary, 0, len(byRound))
	for _, rs := range byRound {
		out = append(out, *rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	// Second pass for barrier skew: spread of work-span completion times
	// within each round.
	earliest := map[uint32]int64{}
	latest := map[uint32]int64{}
	for _, ev := range spans {
		if ev.Kind != KindRound {
			continue
		}
		end := ev.Start + ev.Dur
		if e, ok := earliest[ev.Round]; !ok || end < e {
			earliest[ev.Round] = end
		}
		if l, ok := latest[ev.Round]; !ok || end > l {
			latest[ev.Round] = end
		}
	}
	for i := range out {
		out[i].BarrierSkewNs = latest[out[i].Round] - earliest[out[i].Round]
	}
	return out
}

// Merge combines timelines from several recorders (e.g. the machines of
// a sweep) into one: worker tracks are re-numbered with a per-timeline
// offset so tracks never collide, spans are re-sorted, and summaries are
// recomputed over the merged spans. Round ids are left as emitted, so
// merging runs that share round ids folds their summaries together —
// meaningful for repetitions of one kernel, approximate otherwise.
func Merge(ts ...*Timeline) *Timeline {
	out := &Timeline{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		off := int32(out.P)
		for _, ev := range t.Spans {
			ev.Worker += off
			out.Spans = append(out.Spans, ev)
		}
		out.P += t.P
		out.Wins += t.Wins
		out.Losses += t.Losses
		out.Dropped += t.Dropped
	}
	sort.SliceStable(out.Spans, func(i, j int) bool {
		if out.Spans[i].Start != out.Spans[j].Start {
			return out.Spans[i].Start < out.Spans[j].Start
		}
		return out.Spans[i].Worker < out.Spans[j].Worker
	})
	out.Rounds = summarize(out.Spans)
	return out
}
