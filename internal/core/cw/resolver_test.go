package cw

import (
	"sync"
	"sync/atomic"
	"testing"

	"crcwpram/internal/race"
)

func TestMethodStringRoundTrip(t *testing.T) {
	for _, m := range Methods {
		got, ok := ParseMethod(m.String())
		if !ok || got != m {
			t.Fatalf("ParseMethod(%q) = (%v, %v), want (%v, true)", m.String(), got, ok, m)
		}
	}
	if _, ok := ParseMethod("bogus"); ok {
		t.Fatal("ParseMethod accepted bogus name")
	}
}

func TestMethodProperties(t *testing.T) {
	cases := []struct {
		m          Method
		safeArb    bool
		needsReset bool
	}{
		{CASLT, true, false},
		{Gatekeeper, true, true},
		{GatekeeperChecked, true, true},
		{Naive, false, false},
		{Mutex, true, false},
	}
	for _, c := range cases {
		if got := c.m.SafeForArbitrary(); got != c.safeArb {
			t.Errorf("%v.SafeForArbitrary() = %v, want %v", c.m, got, c.safeArb)
		}
		if got := c.m.NeedsReset(); got != c.needsReset {
			t.Errorf("%v.NeedsReset() = %v, want %v", c.m, got, c.needsReset)
		}
	}
}

func TestNewResolverMethodAndLen(t *testing.T) {
	for _, m := range Methods {
		r := NewResolver(m, 17, Packed)
		if r.Method() != m {
			t.Errorf("resolver for %v reports method %v", m, r.Method())
		}
		if r.Len() != 17 {
			t.Errorf("%v resolver Len() = %d, want 17", m, r.Len())
		}
	}
}

// Selection methods must produce exactly one executed write per (target,
// round); Naive and Mutex execute all writes by design.
func TestResolverWinnerSemantics(t *testing.T) {
	const goroutines = 32
	const targets = 8
	for _, m := range Methods {
		r := NewResolver(m, targets, Packed)
		for round := uint32(1); round <= 5; round++ {
			var executed [targets]atomic.Int32
			var start, done sync.WaitGroup
			start.Add(1)
			done.Add(goroutines * targets)
			for i := 0; i < targets; i++ {
				for g := 0; g < goroutines; g++ {
					i := i
					go func() {
						defer done.Done()
						start.Wait()
						r.Do(i, round, func() { executed[i].Add(1) })
					}()
				}
			}
			start.Done()
			done.Wait()
			for i := 0; i < targets; i++ {
				got := executed[i].Load()
				switch m {
				case Naive, Mutex:
					if got != goroutines {
						t.Fatalf("%v round %d target %d: %d writes executed, want all %d", m, round, i, got, goroutines)
					}
				default:
					if got != 1 {
						t.Fatalf("%v round %d target %d: %d writes executed, want exactly 1", m, round, i, got)
					}
				}
			}
			r.ResetRange(0, targets)
		}
	}
}

// Without ResetRange the gatekeeper methods lose all subsequent rounds; the
// CAS-LT resolver keeps working because advancing the round id is enough.
func TestResolverResetRequirement(t *testing.T) {
	for _, m := range []Method{CASLT, Gatekeeper, GatekeeperChecked} {
		r := NewResolver(m, 1, Packed)
		won1 := false
		r.Do(0, 1, func() { won1 = true })
		if !won1 {
			t.Fatalf("%v: no winner in round 1", m)
		}
		won2 := false
		r.Do(0, 2, func() { won2 = true })
		if m == CASLT && !won2 {
			t.Fatal("caslt: round 2 lost without reset; CAS-LT must not need reinitialization")
		}
		if m != CASLT && won2 {
			t.Fatalf("%v: round 2 won without reset; gatekeeper requires reinitialization", m)
		}
	}
}

// Arbitrary CW through a selection resolver is untorn: a two-word payload
// written under Do always holds a matched pair.
func TestResolverArbitraryWriteUntorn(t *testing.T) {
	const goroutines = 32
	methods := []Method{CASLT, Gatekeeper, GatekeeperChecked, Mutex}
	for _, m := range methods {
		r := NewResolver(m, 1, Packed)
		var a, b uint32 // the multi-word payload
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			go func() {
				defer done.Done()
				start.Wait()
				r.Do(0, 1, func() {
					v := uint32(g + 1)
					a = v
					b = v
				})
			}()
		}
		start.Done()
		done.Wait()
		if a != b || a == 0 {
			t.Fatalf("%v: torn or missing payload a=%d b=%d", m, a, b)
		}
	}
}

func TestNaiveResolverCommonWrite(t *testing.T) {
	if race.Enabled {
		t.Skip("naive variant is intentionally racy; skipped under -race")
	}
	const goroutines = 32
	r := NewResolver(Naive, 1, Packed)
	var flag uint32
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer done.Done()
			start.Wait()
			r.Do(0, 1, func() { flag = 1 }) // common CW: identical value
		}()
	}
	start.Done()
	done.Wait()
	if flag != 1 {
		t.Fatalf("flag = %d, want 1", flag)
	}
}

func TestNewResolverUnknownMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method accepted")
		}
	}()
	NewResolver(Method(99), 1, Packed)
}

func TestUnknownEnumStrings(t *testing.T) {
	if Method(99).String() != "unknown-method" {
		t.Fatal("unknown method string wrong")
	}
	if Layout(99).String() != "unknown-layout" {
		t.Fatal("unknown layout string wrong")
	}
	if Packed.String() != "packed" || PaddedLayout.String() != "padded" {
		t.Fatal("layout strings wrong")
	}
}

func TestResolverPaddedLayout(t *testing.T) {
	for _, m := range Methods {
		r := NewResolver(m, 8, PaddedLayout)
		executed := 0
		r.Do(3, 1, func() { executed++ })
		if executed != 1 {
			t.Fatalf("%v padded: first Do did not execute", m)
		}
	}
}
