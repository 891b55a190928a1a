package bdd

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	const n = 5
	for trial := 0; trial < 30; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		g, ref2 := randPair(r, m, n, 4)

		var buf bytes.Buffer
		if err := m.Save(&buf, []Ref{f, g}); err != nil {
			t.Fatal(err)
		}
		// load into a fresh manager
		m2 := New(n)
		roots, err := m2.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(roots) != 2 {
			t.Fatalf("got %d roots", len(roots))
		}
		checkAgainstTT(t, m2, roots[0], ref, "loaded f")
		checkAgainstTT(t, m2, roots[1], ref2, "loaded g")
	}
}

func TestSaveLoadSameManagerCanonical(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{f}); err != nil {
		t.Fatal(err)
	}
	roots, err := m.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != f {
		t.Fatal("loading into the same manager must be the identity")
	}
}

func TestSaveLoadAcrossDifferentOrder(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	const n = 5
	m := New(n)
	f, ref := randPair(r, m, n, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{f}); err != nil {
		t.Fatal(err)
	}
	// target manager with a scrambled order
	m2 := New(n)
	order := r.Perm(n)
	m2.Reorder(order, nil)
	roots, err := m2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstTT(t, m2, roots[0], ref, "loaded under different order")
}

func TestSaveLoadTerminals(t *testing.T) {
	m := New(2)
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{True, False}); err != nil {
		t.Fatal(err)
	}
	roots, err := m.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if roots[0] != True || roots[1] != False {
		t.Fatal("terminal round trip failed")
	}
}

// TestSaveLoadComplementCrossMode is the round-trip property over
// complemented refs: random functions and their negations are saved
// from a manager in either representation and loaded into a manager in
// either representation. All four pairings must reproduce the exact
// function, and a saved f/¬f pair must load as a complement pair.
func TestSaveLoadComplementCrossMode(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	const n = 5
	modes := []struct {
		name string
		opts []Option
	}{
		{"comp", nil},
		{"nocomp", []Option{DisableComplementEdges()}},
	}
	for _, src := range modes {
		for _, dst := range modes {
			t.Run(src.name+"_to_"+dst.name, func(t *testing.T) {
				for trial := 0; trial < 20; trial++ {
					m := New(n, src.opts...)
					f, ref := randPair(r, m, n, 4)
					var buf bytes.Buffer
					if err := m.Save(&buf, []Ref{f, m.Not(f)}); err != nil {
						t.Fatal(err)
					}
					m2 := New(n, dst.opts...)
					roots, err := m2.Load(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstTT(t, m2, roots[0], ref, "loaded f")
					checkAgainstTT(t, m2, roots[1], ref.not(), "loaded ¬f")
					if roots[1] != m2.Not(roots[0]) {
						t.Fatal("loaded pair is not a canonical complement pair")
					}
				}
			})
		}
	}
}

func TestLoadErrors(t *testing.T) {
	m := New(2)
	var buf bytes.Buffer
	f := m.And(m.Var(0), m.Var(1))
	if err := m.Save(&buf, []Ref{f}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// bad magic; the earlier format versions fail with a typed error
	for _, tc := range []struct{ magic, version string }{
		{"NOTABDD", ""},
		{"GOBDD1\n", "1"},
		{"GOBDD2\n", "2"},
	} {
		_, err := m.Load(strings.NewReader(tc.magic + string(data[len(tc.magic):])))
		if err == nil {
			t.Fatalf("magic %q must fail", tc.magic)
		}
		var uv *UnsupportedVersionError
		if isUV := errors.As(err, &uv); isUV != (tc.version != "") || isUV && uv.Version != tc.version {
			t.Fatalf("magic %q: got error %v", tc.magic, err)
		}
	}
	// truncated
	if _, err := m.Load(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated input must fail")
	}
	// too many variables for the target manager
	big := New(8)
	var buf2 bytes.Buffer
	if err := big.Save(&buf2, []Ref{big.Var(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(&buf2); err == nil {
		t.Fatal("variable overflow must fail")
	}
}
