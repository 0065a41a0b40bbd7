package kernel

import (
	"bytes"
	"fmt"
	"strconv"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/race"
	"crcwpram/internal/sched"
)

// NamedWorkload pairs a differential-matrix workload with the name error
// messages and progress output use.
type NamedWorkload struct {
	Name string
	W    Workload
}

// matrixSeed feeds the randomized kernels in the differential matrices.
const matrixSeed = 7

// MatrixWorkloads builds the fixed differential-matrix workloads for a
// descriptor's input kind. Graph kernels get a deep path (many rounds, tiny
// frontiers), a skewed RMAT graph, and a disconnected graph; list kernels a
// 300-element list with a late maximum and duplicates; chain kernels lists
// covering the n=1 / n=2 edge cases plus a pointer-jumping-boundary 257 and
// a bulk 2000.
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
			{"path2000", Workload{Graph: graph.Path(2000), Seed: matrixSeed}},
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

// matrixMethods returns the methods the differential matrices drive for d:
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

// reprMethod picks the single method the repr and relabel matrices pin
// while sweeping their own axis: CAS-LT when the kernel supports it, the
// zero method otherwise.
func reprMethod(d *Descriptor) cw.Method {
	if len(d.Methods) == 0 || d.SupportsMethod(cw.CASLT) {
		return cw.CASLT
	}
	return d.Methods[0]
}

// matrixExecs is every backend the differential matrices cross-validate,
// the untimed trace replay included.
func matrixExecs() []machine.Exec {
	out := make([]machine.Exec, 0, len(machine.Execs)+1)
	out = append(out, machine.Execs...)
	return append(out, machine.ExecTrace)
}

// oneRun prepares, runs, and validates a single instance configuration and
// returns the projection (nil when the kernel is nondeterministic at p).
func oneRun(d *Descriptor, inst Instance, p int, s Settings) ([]byte, error) {
	inst.Prepare(s)
	out := inst.Run(s)
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !d.Deterministic(p) {
		return nil, nil
	}
	return d.Projection(out), nil
}

// DifferentialExec cross-validates every registered kernel across all
// execution backends at each worker count in ps — the team backend and
// its serial trace replay: each run must validate, and the deterministic
// projection must be byte-identical to the team reference. Kernels with a bitmap representation additionally run both
// representations on every backend, and the bitmap projection must equal
// the word projection.
func DifferentialExec(reg *Registry, ps []int) error {
	for _, d := range reg.All() {
		for _, nw := range MatrixWorkloads(d) {
			for _, p := range ps {
				if err := diffExecOne(d, nw, p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func diffExecOne(d *Descriptor, nw NamedWorkload, p int) error {
	m := machine.New(p)
	defer m.Close()
	inst := d.New(m, nw.W)
	for _, method := range matrixMethods(d) {
		var want []byte
		for i, e := range matrixExecs() {
			got, err := oneRun(d, inst, p, Settings{Exec: e, Method: method})
			if err != nil {
				return fmt.Errorf("%s/%s p=%d %s/%s: %w", d.Name, nw.Name, p, method, e, err)
			}
			if i == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				return fmt.Errorf("%s/%s p=%d %s: %s diverges from %s",
					d.Name, nw.Name, p, method, e, matrixExecs()[0])
			}
		}
	}
	if d.Bitmap {
		method := reprMethod(d)
		var want []byte
		for i, e := range matrixExecs() {
			for _, bitmap := range []bool{false, true} {
				got, err := oneRun(d, inst, p, Settings{Exec: e, Method: method, Bitmap: bitmap})
				if err != nil {
					return fmt.Errorf("%s/%s p=%d bitmap=%v %s: %w", d.Name, nw.Name, p, bitmap, e, err)
				}
				if i == 0 && !bitmap {
					want = got
				} else if !bytes.Equal(got, want) {
					return fmt.Errorf("%s/%s p=%d: %s bitmap=%v diverges from word reference",
						d.Name, nw.Name, p, e, bitmap)
				}
			}
		}
	}
	return nil
}

// DifferentialPolicy cross-validates every registered kernel across all
// scheduling policies on 4-worker machines: every policy × timed backend
// must validate and project identically to the block/team reference.
func DifferentialPolicy(reg *Registry) error {
	machines := make(map[sched.Policy]*machine.Machine, len(sched.Policies))
	for _, pol := range sched.Policies {
		m := machine.New(4, machine.WithPolicy(pol))
		defer m.Close()
		machines[pol] = m
	}
	for _, d := range reg.All() {
		for _, nw := range MatrixWorkloads(d) {
			for _, method := range matrixMethods(d) {
				var want []byte
				for i, pol := range sched.Policies {
					inst := d.New(machines[pol], nw.W)
					for _, e := range machine.Execs {
						got, err := oneRun(d, inst, 4, Settings{Exec: e, Method: method})
						if err != nil {
							return fmt.Errorf("%s/%s %s policy=%s %s: %w",
								d.Name, nw.Name, method, pol, e, err)
						}
						if i == 0 && e == machine.Execs[0] {
							want = got
						} else if !bytes.Equal(got, want) {
							return fmt.Errorf("%s/%s %s: policy=%s %s diverges from %s/%s",
								d.Name, nw.Name, method, pol, e, sched.Policies[0], machine.Execs[0])
						}
					}
				}
			}
		}
	}
	return nil
}

// DifferentialRelabel checks every relabelable kernel under each CSR
// relabeling mode at each worker count in ps: the result computed on the
// permuted graph, unpermuted back to original vertex ids, must validate on
// the permuted graph and project identically to the unrelabeled team
// reference. Bitmap kernels run both representations.
func DifferentialRelabel(reg *Registry, ps []int) error {
	for _, d := range reg.All() {
		if !d.Relabelable || d.Input != InputGraph {
			continue
		}
		for _, nw := range MatrixWorkloads(d) {
			for _, p := range ps {
				if err := diffRelabelOne(d, nw, p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func diffRelabelOne(d *Descriptor, nw NamedWorkload, p int) error {
	m := machine.New(p)
	defer m.Close()
	method := reprMethod(d)
	ref := d.New(m, nw.W)
	want, err := oneRun(d, ref, p, Settings{Exec: machine.ExecTeam, Method: method})
	if err != nil {
		return fmt.Errorf("%s/%s p=%d reference: %w", d.Name, nw.Name, p, err)
	}
	reprs := []bool{false}
	if d.Bitmap {
		reprs = append(reprs, true)
	}
	for _, mode := range graph.RelabelModes {
		if mode == graph.RelabelNone {
			continue
		}
		rl := graph.Relabel(nw.W.Graph, mode)
		w := nw.W
		w.Graph = rl.G
		w.Source = rl.Perm[nw.W.Source]
		inst := d.New(m, w)
		for _, e := range matrixExecs() {
			for _, bitmap := range reprs {
				s := Settings{Exec: e, Method: method, Bitmap: bitmap}
				inst.Prepare(s)
				out := inst.Run(s)
				if err := inst.Validate(); err != nil {
					return fmt.Errorf("%s/%s p=%d relabel=%s %s bitmap=%v: %w",
						d.Name, nw.Name, p, mode, e, bitmap, err)
				}
				if !d.Deterministic(p) || want == nil {
					continue
				}
				// Unpermuting restores vertex order; Canon (for
				// label-valued vectors like CC partitions) then erases the
				// renamed label values, so the projection is id-invariant.
				unperm := make([]uint32, len(out.Vector))
				rl.Unpermute(unperm, out.Vector)
				got := d.Projection(Outcome{Vector: unperm, Depth: out.Depth})
				if !bytes.Equal(got, want) {
					return fmt.Errorf("%s/%s p=%d relabel=%s %s bitmap=%v: unpermuted result diverges",
						d.Name, nw.Name, p, mode, e, bitmap)
				}
			}
		}
	}
	return nil
}

// Smoke executes every (kernel, axis, value) combination once on a small
// 2-worker machine and validates each run: the registry completeness test
// drives it so that a descriptor declaring an axis it cannot actually run
// fails loudly.
func Smoke(reg *Registry) error {
	for _, d := range reg.All() {
		nw := MatrixWorkloads(d)[0]
		m := machine.New(2)
		inst := d.New(m, nw.W)
		base := Settings{Exec: machine.ExecTeam, Method: reprMethod(d)}
		for _, ax := range d.Axes() {
			for _, val := range ax.Values {
				s := base
				var inst2 Instance
				var m2 *machine.Machine
				switch ax.Name {
				case AxisMethod:
					mm, ok := cw.ParseMethod(val)
					if !ok {
						return fmt.Errorf("%s: unparseable method %q", d.Name, val)
					}
					if mm == cw.Naive && race.Enabled {
						continue
					}
					s.Method = mm
				case AxisExec:
					e, ok := machine.ParseExec(val)
					if !ok {
						return fmt.Errorf("%s: unparseable exec %q", d.Name, val)
					}
					s.Exec = e
				case AxisPolicy:
					pol, ok := sched.ParsePolicy(val)
					if !ok {
						return fmt.Errorf("%s: unparseable policy %q", d.Name, val)
					}
					m2 = machine.New(2, machine.WithPolicy(pol))
					inst2 = d.New(m2, nw.W)
				case AxisBalance:
					b, ok := graph.ParseBalance(val)
					if !ok {
						return fmt.Errorf("%s: unparseable balance %q", d.Name, val)
					}
					s.Balance = b
				case AxisRepr:
					s.Bitmap = val == "bitmap"
				case AxisRelabel:
					mode, ok := graph.ParseRelabel(val)
					if !ok {
						return fmt.Errorf("%s: unparseable relabel %q", d.Name, val)
					}
					rl := graph.Relabel(nw.W.Graph, mode)
					w := nw.W
					w.Graph = rl.G
					w.Source = rl.Perm[nw.W.Source]
					inst2 = d.New(m, w)
				}
				run := inst
				if inst2 != nil {
					run = inst2
				}
				run.Prepare(s)
				run.Run(s)
				if err := run.Validate(); err != nil {
					m.Close()
					if m2 != nil {
						m2.Close()
					}
					return fmt.Errorf("%s: smoke %s=%s: %w", d.Name, ax.Name, val, err)
				}
				if m2 != nil {
					m2.Close()
				}
			}
		}
		m.Close()
	}
	return nil
}
