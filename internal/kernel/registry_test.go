package kernel

import (
	"reflect"
	"strings"
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// stubInstance satisfies Instance for registry-shape tests that never run.
type stubInstance struct{}

func (stubInstance) Prepare(Settings)        {}
func (stubInstance) Run(Settings) Outcome    { return Outcome{} }
func (stubInstance) Validate() error         { return nil }
func (stubInstance) Trace() *exec.TraceStats { return nil }

func stubNew(*machine.Machine, Workload) Instance { return stubInstance{} }

func TestRegistryRegisterValidation(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		d    Descriptor
		want string
	}{
		{Descriptor{Pkg: "p", New: stubNew}, "without a name"},
		{Descriptor{Name: "k", New: stubNew}, "without a package"},
		{Descriptor{Name: "k", Pkg: "p"}, "without a constructor"},
		{Descriptor{Name: "k", Pkg: "p", New: stubNew, Methods: []cw.Method{cw.Method(99)}}, "unknown method"},
	}
	for _, c := range cases {
		err := r.Register(c.d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Register(%+v) = %v, want error containing %q", c.d, err, c.want)
		}
	}
	if err := r.Register(Descriptor{Name: "k", Pkg: "p", New: stubNew}); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	if err := r.Register(Descriptor{Name: "k", Pkg: "q", New: stubNew}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name accepted: %v", err)
	}
	d, ok := r.Lookup("k")
	if !ok || d.ProbeBoundFactor != 1 {
		t.Errorf("Lookup(k) = %+v, %v; want ProbeBoundFactor defaulted to 1", d, ok)
	}
}

func TestRegistryAllSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.MustRegister(Descriptor{Name: n, Pkg: "p", New: stubNew})
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Errorf("Names() = %v, want sorted", got)
	}
	for i, d := range r.All() {
		if d.Name != r.Names()[i] {
			t.Errorf("All()[%d] = %s, out of order", i, d.Name)
		}
	}
}

func TestDescriptorAxes(t *testing.T) {
	full := Descriptor{
		Methods: cw.Methods, Bitmap: true, Balanced: true, Relabelable: true,
	}
	var names []string
	for _, ax := range full.Axes() {
		names = append(names, ax.Name)
		if len(ax.Values) == 0 {
			t.Errorf("axis %s has no values", ax.Name)
		}
	}
	want := []string{AxisMethod, AxisExec, AxisPolicy, AxisBalance, AxisRepr, AxisRelabel}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("full axes = %v, want %v", names, want)
	}

	bare := Descriptor{}
	names = nil
	for _, ax := range bare.Axes() {
		names = append(names, ax.Name)
	}
	if !reflect.DeepEqual(names, []string{AxisExec, AxisPolicy}) {
		t.Errorf("bare axes = %v, want [exec policy]", names)
	}
}

func TestProjection(t *testing.T) {
	d := Descriptor{}
	if got := d.Projection(Outcome{}); got != nil {
		t.Errorf("nil-vector projection = %v, want nil", got)
	}
	got := d.Projection(Outcome{Vector: []uint32{0x04030201}, Depth: 7})
	want := []byte{1, 2, 3, 4, 7, 0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("projection = %v, want %v", got, want)
	}

	rev := Descriptor{Canon: func(v []uint32) []uint32 {
		out := make([]uint32, len(v))
		for i, x := range v {
			out[len(v)-1-i] = x
		}
		return out
	}}
	got = rev.Projection(Outcome{Vector: []uint32{1, 2}})
	want = []byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canon projection = %v, want %v", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	always := Descriptor{}
	serial := Descriptor{DetP: 1}
	if !always.Deterministic(64) {
		t.Error("DetP=0 must be deterministic at any p")
	}
	if !serial.Deterministic(1) || serial.Deterministic(2) {
		t.Error("DetP=1 must hold at p=1 only")
	}
}

func TestClaimBound(t *testing.T) {
	cases := []struct {
		contention Contention
		factor     int
		method     cw.Method
		want       uint64
	}{
		{ContentionGuarded, 1, cw.CASLT, 4},
		{ContentionGuarded, 2, cw.CASLT, 8},
		{ContentionGuarded, 0, cw.CASLT, 4},
		{ContentionGuarded, 1, cw.Gatekeeper, 0},
		{ContentionGuarded, 1, cw.GatekeeperChecked, 0},
		{ContentionGuarded, 1, cw.Naive, 0},
		{ContentionGuarded, 1, cw.Mutex, 0},
		{ContentionNone, 1, cw.CASLT, 0},
		{ContentionEREW, 1, cw.CASLT, 0},
		{ContentionCAS, 1, cw.CASLT, 0},
	}
	for _, c := range cases {
		d := Descriptor{Contention: c.contention, ProbeBoundFactor: c.factor}
		if got := d.ClaimBound(c.method, 4); got != c.want {
			t.Errorf("contention %d factor %d: ClaimBound(%s, 4) = %d, want %d",
				c.contention, c.factor, c.method, got, c.want)
		}
	}
}

// TestAxisVariantsCoverAxes checks that the reference run plus
// AxisVariants' runs reach every (axis, value) pair a descriptor
// declaring every axis advertises.
func TestAxisVariantsCoverAxes(t *testing.T) {
	d := &Descriptor{Methods: cw.Methods, Bitmap: true, Balanced: true, Relabelable: true, Input: InputGraph}
	covered := map[string]bool{}
	reached := func(s Settings, pol sched.Policy, mode graph.RelabelMode) {
		repr := ReprValues()[0]
		if s.Bitmap {
			repr = ReprValues()[1]
		}
		for _, kv := range [][2]string{
			{AxisMethod, s.Method.String()}, {AxisExec, s.Exec.String()}, {AxisPolicy, pol.String()},
			{AxisBalance, s.Balance.String()}, {AxisRepr, repr}, {AxisRelabel, mode.String()},
		} {
			covered[kv[0]+"="+kv[1]] = true
		}
	}
	for _, method := range d.Methods {
		reached(Settings{Exec: machine.ExecTeam, Method: method}, sched.Block, graph.RelabelNone)
	}
	for _, v := range AxisVariants() {
		pol := sched.Block
		if v.Options != nil {
			m := machine.New(1, v.Options(1)...)
			pol = m.Policy()
			m.Close()
		}
		for _, method := range d.Methods {
			for _, r := range v.Runs(d, 2, method) {
				reached(r.Settings, pol, r.Relabel)
			}
		}
	}
	for _, ax := range d.Axes() {
		for _, val := range ax.Values {
			if !covered[ax.Name+"="+val] {
				t.Errorf("no reference or AxisVariants run has %s=%s", ax.Name, val)
			}
		}
	}
}

// TestDifferentialKeepsReferences checks that a registry keeps the
// reference runs Differential makes: a second call over it builds an
// instance for every variant machine again but none for a reference.
func TestDifferentialKeepsReferences(t *testing.T) {
	built := 0
	r := NewRegistry()
	r.MustRegister(Descriptor{Name: "stub", Pkg: "p", Input: InputList,
		New: func(*machine.Machine, Workload) Instance { built++; return stubInstance{} }})
	again := Variant{Name: "again", Runs: teamRuns}
	// Two worker counts: two references and two variant machines, then
	// two more variant machines.
	for call, want := range []int{4, 6} {
		if err := Differential(r, []int{1, 2}, again); err != nil {
			t.Fatal(err)
		}
		if built != want {
			t.Fatalf("after call %d: %d instances built, want %d", call+1, built, want)
		}
	}
}

func TestCanonicalPartition(t *testing.T) {
	got := CanonicalPartition([]uint32{9, 9, 3, 9, 3})
	want := []uint32{0, 0, 2, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CanonicalPartition = %v, want %v", got, want)
	}
}

func TestAxisValues(t *testing.T) {
	for _, axis := range []string{AxisMethod, AxisExec, AxisPolicy, AxisBalance, AxisRepr, AxisRelabel} {
		vals, ok := AxisValues(axis)
		if !ok || len(vals) == 0 {
			t.Errorf("AxisValues(%s) = %v, %v; want a non-empty table", axis, vals, ok)
		}
		for _, v := range vals {
			if !ValidAxisValue(axis, v) {
				t.Errorf("ValidAxisValue(%s, %s) = false for an enumerated value", axis, v)
			}
		}
		if ValidAxisValue(axis, "definitely-not-a-value") {
			t.Errorf("ValidAxisValue(%s) accepted junk", axis)
		}
	}
	if vals, ok := AxisValues(AxisThreads); !ok || vals != nil {
		t.Errorf("AxisValues(threads) = %v, %v; want (nil, true)", vals, ok)
	}
	if _, ok := AxisValues("voltage"); ok {
		t.Error("AxisValues accepted an unknown axis")
	}
	if ValidAxisValue(AxisThreads, "4") || ValidAxisValue(AxisKernel, "bfs") {
		t.Error("ValidAxisValue must reject non-enumerable axes")
	}
}

func selectorRegistry() *Registry {
	r := NewRegistry()
	r.MustRegister(Descriptor{
		Name: "toy", Pkg: "p", New: stubNew,
		Methods: []cw.Method{cw.CASLT}, Bitmap: true,
	})
	return r
}

func TestParseSelector(t *testing.T) {
	r := selectorRegistry()
	d, sel, err := r.ParseSelector(" kernel=toy , method=caslt, repr=bitmap, threads=8 ")
	if err != nil {
		t.Fatalf("legal selector rejected: %v", err)
	}
	if d.Name != "toy" || sel[AxisMethod] != "caslt" || sel[AxisThreads] != "8" {
		t.Errorf("parsed %s / %v", d.Name, sel)
	}

	bad := []struct{ sel, want string }{
		{"method=caslt", "missing kernel"},
		{"kernel=nope", "unknown kernel"},
		{"kernel=toy,method", "want axis=value"},
		{"kernel=toy,method=caslt,method=mutex", "duplicate axis"},
		{"kernel=toy,balance=edge", "no balance axis"},
		{"kernel=toy,method=mutex", `method="mutex" not in`},
		{"kernel=toy,voltage=9", "no voltage axis"},
	}
	for _, c := range bad {
		if _, _, err := r.ParseSelector(c.sel); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSelector(%q) = %v, want error containing %q", c.sel, err, c.want)
		}
	}
}
