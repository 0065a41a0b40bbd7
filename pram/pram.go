// Package pram is the public API of crcwpram, a Go implementation of
// arbitrary/common CRCW PRAM concurrent writes after Ghanim, ElWasif and
// Bernholdt, "Implementing Arbitrary/Common Concurrent Writes of CRCW
// PRAM" (ICPP 2021).
//
// The package re-exports, under one import path, the three layers a
// downstream user needs:
//
//   - the concurrent-write primitives (CAS-LT cells and their comparators)
//     from internal/core/cw;
//   - the PRAM step executor (lock-step parallel-for over a worker pool)
//     from internal/core/machine;
//   - the graph substrate used by the paper's kernels from internal/graph.
//
// A minimal arbitrary concurrent write looks like:
//
//	m := pram.NewMachine(8)
//	defer m.Close()
//	cells := pram.NewCellArray(n, pram.Packed)
//	m.Stamp(cells)         // claimed with m's round ids
//	round := m.NextRound()
//	m.ParallelFor(n, func(i int) {
//		target := ...          // index this virtual processor writes
//		if cells.TryClaim(target, round) {
//			data[target] = ... // winner commits; losers skip
//		}
//	}) // implicit barrier: dependent reads are safe after this
//
// The paper's three benchmark kernels are available as importable packages
// (crcwpram/internal/alg/{maxfind,bfs,cc}) and as runnable binaries and
// examples; see the repository README.
package pram

import (
	"crcwpram/internal/barrier"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// Core concurrent-write types (see crcwpram/internal/core/cw).
type (
	// Cell is the CAS-LT auxiliary word guarding one concurrent-write
	// target (the paper's lastRoundUpdated).
	Cell = cw.Cell
	// Cell64 is Cell with a 64-bit round counter.
	Cell64 = cw.Cell64
	// CellArray is a fixed array of CAS-LT cells.
	CellArray = cw.Array
	// BitArray is a bit-packed common-CW array: 64 one-bit cells per
	// atomic word (512 per cache line), wait-free fetch-OR Set plus the
	// winner-selecting TryClaimBit forms.
	BitArray = cw.BitArray
	// Gate is the prior-practice gatekeeper (atomic prefix-sum) word.
	Gate = cw.Gate
	// GateArray is a fixed array of gatekeeper words.
	GateArray = cw.GateArray
	// MutexArray is the critical-section baseline.
	MutexArray = cw.MutexArray
	// PriorityMinCell implements the Priority CRCW rule (minimum wins).
	PriorityMinCell = cw.PriorityMinCell
	// PriorityMaxCell implements the Priority CRCW rule (maximum wins).
	PriorityMaxCell = cw.PriorityMaxCell
	// Method names a concurrent-write implementation strategy.
	Method = cw.Method
	// Resolver is the uniform winner-selection interface over n targets.
	Resolver = cw.Resolver
	// Layout selects packed or cache-line padded auxiliary arrays.
	Layout = cw.Layout
)

// Slot is a typed concurrent-write target: exactly one writer per round
// commits its complete value, so multi-word payloads ("structure and class
// copies", one of the paper's stated goals) can never tear.
type Slot[T any] = cw.Slot[T]

// SlotArray is a fixed array of typed concurrent-write targets.
type SlotArray[T any] = cw.SlotArray[T]

// NewSlotArray returns an n-slot array of empty typed targets.
func NewSlotArray[T any](n int) *SlotArray[T] { return cw.NewSlotArray[T](n) }

// Concurrent-write method identifiers.
const (
	CASLT             = cw.CASLT
	Gatekeeper        = cw.Gatekeeper
	GatekeeperChecked = cw.GatekeeperChecked
	Naive             = cw.Naive
	Mutex             = cw.Mutex
)

// Auxiliary-array layouts.
const (
	Packed = cw.Packed
	Padded = cw.PaddedLayout
)

// NewCellArray returns an n-cell CAS-LT array.
func NewCellArray(n int, layout Layout) *CellArray { return cw.NewArray(n, layout) }

// NewBitArray returns an n-cell bit-packed common-CW array.
func NewBitArray(n int) *BitArray { return cw.NewBitArray(n) }

// NewGateArray returns an n-gate gatekeeper array.
func NewGateArray(n int, layout Layout) *GateArray { return cw.NewGateArray(n, layout) }

// NewMutexArray returns an n-lock critical-section array.
func NewMutexArray(n int) *MutexArray { return cw.NewMutexArray(n) }

// NewResolver returns a Resolver for the given method over n targets.
func NewResolver(m Method, n int, layout Layout) Resolver { return cw.NewResolver(m, n, layout) }

// ParseMethod converts a method name ("caslt", "gatekeeper", ...) to a
// Method.
func ParseMethod(s string) (Method, bool) { return cw.ParseMethod(s) }

// Methods lists all concurrent-write methods in presentation order.
var Methods = cw.Methods

// Machine executes PRAM rounds over a fixed worker pool (see
// crcwpram/internal/core/machine).
type Machine = machine.Machine

// NewMachine returns a PRAM machine with p workers; Close it when done.
func NewMachine(p int, opts ...machine.Option) *Machine { return machine.New(p, opts...) }

// Machine options.
var (
	// WithPolicy selects the loop partitioning policy.
	WithPolicy = machine.WithPolicy
	// WithChunk sets the dynamic/guided chunk size.
	WithChunk = machine.WithChunk
	// WithBarrier selects the barrier construction.
	WithBarrier = machine.WithBarrier
	// WithExec selects the machine's default execution backend — what the
	// kernels' plain Run entry points dispatch through.
	WithExec = machine.WithExec
	// WithMetrics enables the live contention-metrics recorder; read it
	// with Machine.Snapshot after a run. Off by default at zero cost.
	WithMetrics = machine.WithMetrics
	// WithEventTrace attaches a round-level event-trace flight recorder
	// (build one with NewEventTrace; its worker count must match the
	// machine's). Implies metrics. Drain the recorder into a Timeline
	// after a run and export it with Timeline.WriteChromeTrace.
	WithEventTrace = machine.WithEventTrace
)

// Round-level execution tracing (see crcwpram/internal/core/trace): a
// per-worker flight recorder of round / barrier / steal / fault / claim
// span events, drained post-run into a sorted timeline with per-round
// summaries and exportable as Chrome trace-event / Perfetto JSON.
type (
	// EventTrace is the flight recorder WithEventTrace attaches.
	EventTrace = evtrace.Recorder
	// Timeline is a drained recorder: sorted spans plus per-round
	// summaries (critical-path worker, barrier skew, claim histogram).
	Timeline = evtrace.Timeline
	// TimelineEvent is one recorded span or instant.
	TimelineEvent = evtrace.Event
	// RoundSummary aggregates one round's spans across workers.
	RoundSummary = evtrace.RoundSummary
)

// NewEventTrace returns a flight recorder for a p-worker machine with
// the given per-worker ring capacity (capPerWorker < 1 selects the
// default). Pass it to WithEventTrace; after a run, Drain it into a
// Timeline. Options: WithRuntimeTrace emits matching runtime/trace
// regions for go tool trace.
func NewEventTrace(p, capPerWorker int, opts ...evtrace.Option) *EventTrace {
	return evtrace.New(p, capPerWorker, opts...)
}

// WithRuntimeTrace makes an event-trace recorder additionally emit
// runtime/trace regions, so PRAM rounds appear in go tool trace aligned
// with goroutine scheduling.
var WithRuntimeTrace = evtrace.WithRuntimeTrace

// MetricsSnapshot is the aggregated view of a metrics-enabled machine's
// recorder: CAS attempts/wins/losses, pre-check skips, busy and
// barrier-wait time per worker, round wall time and round count. See
// crcwpram/internal/core/metrics.
type MetricsSnapshot = metrics.Snapshot

// Exec selects how kernels drive the machine (see the Exec* constants).
type Exec = machine.Exec

// Execution backends for WithExec and the kernels' RunExec entry points.
const (
	// ExecTeam runs the whole kernel inside one persistent parallel
	// region; rounds are separated by sense barriers — the default.
	ExecTeam = machine.ExecTeam
	// ExecTrace replays the kernel serially with P logical workers,
	// counting steps, barriers and per-worker iterations instead of
	// synchronizing — an observability backend, not a timed one.
	ExecTrace = machine.ExecTrace
)

// ParseExec converts a backend name ("team", "trace") to an Exec.
func ParseExec(s string) (Exec, bool) { return machine.ParseExec(s) }

// Execs lists the timed execution backends in presentation order.
var Execs = machine.Execs

// Scheduling policies for WithPolicy.
const (
	Block   = sched.Block
	Cyclic  = sched.Cyclic
	Dynamic = sched.Dynamic
	Guided  = sched.Guided
	// Stealing partitions each loop onto per-worker chunk deques (each
	// worker's block share); idle workers steal chunks from random victims,
	// with no shared cursor on the common path.
	Stealing = sched.Stealing
)

// ParsePolicy converts a policy name ("block", "cyclic", "dynamic",
// "guided", "stealing") to a Policy for WithPolicy.
func ParsePolicy(s string) (sched.Policy, bool) { return sched.ParsePolicy(s) }

// Policies lists all scheduling policies in presentation order.
var Policies = sched.Policies

// Barrier constructions for WithBarrier.
const (
	BarrierCentral = barrier.KindCentral
	BarrierSense   = barrier.KindSense
	BarrierTree    = barrier.KindTree
)

// Graph substrate (see crcwpram/internal/graph).
type (
	// Graph is an immutable CSR graph.
	Graph = graph.Graph
	// Edge is one undirected edge (or directed arc).
	Edge = graph.Edge
)

// Graph constructors and generators.
var (
	// FromEdges builds a CSR graph from an edge list.
	FromEdges = graph.FromEdges
	// RandomUndirected generates the paper's random-graph input family.
	RandomUndirected = graph.RandomUndirected
	// ConnectedRandom generates a connected random multigraph.
	ConnectedRandom = graph.ConnectedRandom
	// RMAT generates a skewed power-law-ish multigraph.
	RMAT = graph.RMAT
)
