// Package chaos is the adversarial-schedule fault-injection layer: a
// deterministic, seed-driven perturbation source that the execution
// backends consult at instrumented yield points — before and after
// claim-bearing loop iterations, at barrier arrival, at steal-chunk
// delivery, and after lost winner-selection attempts — to surface the
// interleavings that normal runs never produce.
//
// The paper's correctness argument for the CAS-LT concurrent-write
// emulation (one committed winner per cell per round, at most P executed
// read-modify-writes per cell per round, no write from round r visible
// after round r's barrier) holds for *every* schedule, but an ordinary
// test run only exercises the handful of schedules the Go runtime happens
// to produce on one machine. An Injector widens that set: each fault
// decision is a pure function of (worker, site, per-worker event counter)
// under a fixed seed, so a failing schedule is replayable by seed alone,
// and two runs with the same seed make identical fault decisions even
// though the OS interleaves them differently. The injector never touches
// algorithm state — it only burns time (spin) and yields (runtime.Gosched)
// — so a perturbed run of a deterministic kernel must produce the same
// bytes as an unperturbed run; internal/kernel.DifferentialChaos enforces
// exactly that, with the metrics.Checker watching the invariants live.
//
// Wiring: machine.WithChaos(inj) attaches an injector to a machine; the
// exec package then wraps the team backend's Ctx so every
// work-shared loop passes through the injector, and the metrics layer
// calls the injector's OnClaim hook (it implements metrics.ClaimHook)
// after every recorded winner-selection attempt. The sticky-loser fault
// additionally needs to re-drive claims, which the hook cannot do; wrap a
// cw.Resolver in NewStickyResolver for that (see resolver.go).
package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// Fault is a bitmask of fault classes an Injector may inject. The zero
// value injects nothing.
type Fault uint32

const (
	// FaultStall stalls a worker before or after individual loop
	// iterations (the iteration is the claim-bearing unit: a stall after
	// iteration i is a stall immediately before iteration i+1's claim),
	// widening the window between a claim's pre-check and its CAS.
	FaultStall Fault = 1 << iota
	// FaultJitter delays a worker's arrival at a barrier, so round
	// boundaries close with maximal skew between the first and last
	// arriving workers.
	FaultJitter
	// FaultStealDelay delays a worker between claiming a chunk from the
	// work-stealing deques and executing it, holding stolen work hostage
	// while the victim's deque drains.
	FaultStealDelay
	// FaultStorm forces a burst of runtime.Gosched calls on a worker that
	// just lost a winner-selection attempt — the preemption-storm-inside-
	// the-CAS-retry-loop schedule that contention pathologies need.
	FaultStorm
	// FaultSticky keeps a losing writer at its cell: at the claim hook the
	// loser lingers (an extended yield burst); through a sticky resolver
	// wrapper (NewStickyResolver) the loser additionally re-drives the
	// claim itself, which must keep losing for the rest of the round.
	FaultSticky
)

// AllFaults enables every fault class.
const AllFaults = FaultStall | FaultJitter | FaultStealDelay | FaultStorm | FaultSticky

// faultNames orders the fault names for String and ParseFaults.
var faultNames = []struct {
	f    Fault
	name string
}{
	{FaultStall, "stall"},
	{FaultJitter, "jitter"},
	{FaultStealDelay, "steal-delay"},
	{FaultStorm, "storm"},
	{FaultSticky, "sticky-loser"},
}

// String renders the mask as a +-joined list of fault names ("none" for
// the zero mask, e.g. "stall+storm").
func (f Fault) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range faultNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	if rest := f &^ AllFaults; rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#x)", uint32(rest)))
	}
	return strings.Join(parts, "+")
}

// ParseFaults parses a +-joined list of fault names as produced by String;
// "all" and "none" are accepted.
func ParseFaults(s string) (Fault, error) {
	switch s {
	case "all":
		return AllFaults, nil
	case "none", "":
		return 0, nil
	}
	var f Fault
	for _, part := range strings.Split(s, "+") {
		found := false
		for _, fn := range faultNames {
			if part == fn.name {
				f |= fn.f
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("chaos: unknown fault %q (have stall, jitter, steal-delay, storm, sticky-loser, all, none)", part)
		}
	}
	return f, nil
}

// Spec is one parsed -chaos request: the seeds to drive the matrix with
// and the fault classes to inject.
type Spec struct {
	Seeds  []uint64
	Faults Fault
}

// DefaultSeeds is the seed set a Spec without an explicit seed list uses —
// the same short set the CI chaos job runs.
var DefaultSeeds = []uint64{1, 2, 3}

// ParseSpec parses a crcwbench -chaos value: comma-separated key=value
// pairs with keys "seed" (a +-joined list of uint64 seeds) and "faults"
// (a +-joined list of fault names, default all). The empty string and
// "default" select DefaultSeeds with all faults.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Seeds: DefaultSeeds, Faults: AllFaults}
	if s == "" || s == "default" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		switch k {
		case "seed", "seeds":
			spec.Seeds = nil
			for _, part := range strings.Split(v, "+") {
				n, err := strconv.ParseUint(part, 10, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("chaos: bad seed %q: %v", part, err)
				}
				spec.Seeds = append(spec.Seeds, n)
			}
		case "faults":
			f, err := ParseFaults(v)
			if err != nil {
				return Spec{}, err
			}
			spec.Faults = f
		default:
			return Spec{}, fmt.Errorf("chaos: unknown spec key %q (want seed=... or faults=...)", k)
		}
	}
	if len(spec.Seeds) == 0 {
		return Spec{}, fmt.Errorf("chaos: empty seed list")
	}
	return spec, nil
}
