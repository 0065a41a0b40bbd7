package kernel

import (
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// The fuzz targets below hold each axis parser to the registry's
// legal-value tables: a parser accepts a string exactly when
// ValidAxisValue does, and an accepted value round-trips through String()
// unchanged. This is the property that keeps -run parsing, the sweeps'
// axis products, and the JSON validator's accept sets from drifting apart
// — the tables in axes.go are derived from the same canonical slices the
// parsers match against, and these fuzzers fail the moment either side
// grows a value the other does not know.

// seedAxis seeds the corpus with every legal value plus near-misses.
func seedAxis(f *testing.F, axis string) {
	vals, _ := AxisValues(axis)
	for _, v := range vals {
		f.Add(v)
		f.Add(v + " ")
		f.Add("x" + v)
	}
	f.Add("")
	f.Add("block")
	f.Add("TRACE")
}

func FuzzParseExec(f *testing.F) {
	seedAxis(f, AxisExec)
	// A removed backend's name must parse as unknown.
	f.Add("pool")
	f.Add("pool,team")
	f.Add("Pool")
	f.Fuzz(func(t *testing.T, s string) {
		e, ok := machine.ParseExec(s)
		if want := ValidAxisValue(AxisExec, s); ok != want {
			t.Fatalf("ParseExec(%q) ok=%v, axis table says %v", s, ok, want)
		}
		if ok && e.String() != s {
			t.Fatalf("ParseExec(%q).String() = %q", s, e.String())
		}
	})
}

func FuzzParseMethod(f *testing.F) {
	seedAxis(f, AxisMethod)
	f.Fuzz(func(t *testing.T, s string) {
		m, ok := cw.ParseMethod(s)
		if want := ValidAxisValue(AxisMethod, s); ok != want {
			t.Fatalf("ParseMethod(%q) ok=%v, axis table says %v", s, ok, want)
		}
		if ok && m.String() != s {
			t.Fatalf("ParseMethod(%q).String() = %q", s, m.String())
		}
	})
}

func FuzzParsePolicy(f *testing.F) {
	seedAxis(f, AxisPolicy)
	f.Fuzz(func(t *testing.T, s string) {
		p, ok := sched.ParsePolicy(s)
		if want := ValidAxisValue(AxisPolicy, s); ok != want {
			t.Fatalf("ParsePolicy(%q) ok=%v, axis table says %v", s, ok, want)
		}
		if ok && p.String() != s {
			t.Fatalf("ParsePolicy(%q).String() = %q", s, p.String())
		}
	})
}

func FuzzParseBalance(f *testing.F) {
	seedAxis(f, AxisBalance)
	f.Fuzz(func(t *testing.T, s string) {
		b, ok := graph.ParseBalance(s)
		if want := ValidAxisValue(AxisBalance, s); ok != want {
			t.Fatalf("ParseBalance(%q) ok=%v, axis table says %v", s, ok, want)
		}
		if ok && b.String() != s {
			t.Fatalf("ParseBalance(%q).String() = %q", s, b.String())
		}
	})
}

func FuzzParseRelabel(f *testing.F) {
	seedAxis(f, AxisRelabel)
	f.Fuzz(func(t *testing.T, s string) {
		m, ok := graph.ParseRelabel(s)
		if want := ValidAxisValue(AxisRelabel, s); ok != want {
			t.Fatalf("ParseRelabel(%q) ok=%v, axis table says %v", s, ok, want)
		}
		if ok && m.String() != s {
			t.Fatalf("ParseRelabel(%q).String() = %q", s, m.String())
		}
	})
}

// FuzzParseSelector throws arbitrary selector strings at the -run parser:
// it must never panic, and anything it accepts must be a selector whose
// every axis value the kernel's own axis tables also accept.
func FuzzParseSelector(f *testing.F) {
	f.Add("kernel=toy,method=caslt,exec=team")
	f.Add("kernel=toy,repr=bitmap,threads=4")
	f.Add("kernel=nope")
	f.Add("kernel=toy,method=caslt,method=mutex")
	f.Add("=,=,=")
	f.Add("kernel=toy,,,")
	f.Fuzz(func(t *testing.T, s string) {
		r := selectorRegistry()
		d, sel, err := r.ParseSelector(s)
		if err != nil {
			return
		}
		if sel[AxisKernel] != d.Name {
			t.Fatalf("accepted selector %q resolves kernel %q but carries %q", s, d.Name, sel[AxisKernel])
		}
		for k, v := range sel {
			if k == AxisKernel || k == AxisThreads {
				continue
			}
			legal := false
			for _, ax := range d.Axes() {
				if ax.Name != k {
					continue
				}
				for _, av := range ax.Values {
					if av == v {
						legal = true
					}
				}
			}
			if !legal {
				t.Fatalf("accepted selector %q carries illegal %s=%q", s, k, v)
			}
		}
	})
}
