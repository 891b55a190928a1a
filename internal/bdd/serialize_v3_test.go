package bdd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// TestSaveNamedLoadNamedRoundTrip is the v3 round-trip property: random
// named functions saved from a manager in either complement-edge mode
// load back into a manager in either mode with names and functions
// intact, in record order.
func TestSaveNamedLoadNamedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
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
				for trial := 0; trial < 15; trial++ {
					m := New(n, src.opts...)
					f, ref := randPair(r, m, n, 4)
					g, ref2 := randPair(r, m, n, 4)
					var buf bytes.Buffer
					err := m.SaveNamed(&buf, []NamedRoot{
						{Name: "reach", Ref: f},
						{Name: "fair", Ref: g},
						{Name: "", Ref: m.Not(f)},
					})
					if err != nil {
						t.Fatal(err)
					}
					m2 := New(n, dst.opts...)
					roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), false)
					if err != nil {
						t.Fatal(err)
					}
					if len(roots) != 3 {
						t.Fatalf("got %d roots", len(roots))
					}
					if roots[0].Name != "reach" || roots[1].Name != "fair" || roots[2].Name != "" {
						t.Fatalf("names not preserved: %q %q %q", roots[0].Name, roots[1].Name, roots[2].Name)
					}
					checkAgainstTT(t, m2, roots[0].Ref, ref, "named reach")
					checkAgainstTT(t, m2, roots[1].Ref, ref2, "named fair")
					checkAgainstTT(t, m2, roots[2].Ref, ref.not(), "named ¬reach")
					if roots[2].Ref != m2.Not(roots[0].Ref) {
						t.Fatal("saved complement pair did not load canonical")
					}
				}
			})
		}
	}
}

// TestLoadNamedAdoptOrder saves from a manager whose order was scrambled
// (standing in for a sifted order) and loads with adoptOrder: the target
// manager must come out in the saved order and the functions must still
// be correct.
func TestLoadNamedAdoptOrder(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	const n = 6
	for trial := 0; trial < 10; trial++ {
		m := New(n)
		f, ref := randPair(r, m, n, 4)
		m.Protect(f)
		order := r.Perm(n)
		rs := m.Reorder(order, []Ref{f})
		f = rs[0]
		var buf bytes.Buffer
		if err := m.SaveNamed(&buf, []NamedRoot{{Name: "reach", Ref: f}}); err != nil {
			t.Fatal(err)
		}
		m2 := New(n)
		roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m2.Order(), m.Order()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order not adopted: got %v want %v", got, want)
			}
		}
		checkAgainstTT(t, m2, roots[0].Ref, ref, "adopted-order load")
		if m2.Size(roots[0].Ref) != m.Size(f) {
			t.Fatalf("adopted order gives size %d, source had %d", m2.Size(roots[0].Ref), m.Size(f))
		}
	}
}

// TestLoadNamedAdoptOrderPostSift exercises adoption against an order
// produced by the real sifting pass rather than a synthetic permutation.
func TestLoadNamedAdoptOrderPostSift(t *testing.T) {
	const n = 8
	m := New(n)
	// An order-sensitive function: interleaved comparator chain.
	f := True
	for i := 0; i+1 < n; i += 2 {
		f = m.And(f, m.Xor(m.Var(i), m.Var(i+1)))
	}
	m.Protect(f)
	rs := m.Sift([]Ref{f})
	f = rs[0]
	var buf bytes.Buffer
	if err := m.SaveNamed(&buf, []NamedRoot{{Name: "fair", Ref: f}}); err != nil {
		t.Fatal(err)
	}
	m2 := New(n)
	roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m2.Order(), m.Order()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sifted order not adopted: got %v want %v", got, want)
		}
	}
	if m2.Size(roots[0].Ref) != m.Size(f) {
		t.Fatalf("post-sift sizes differ: got %d want %d", m2.Size(roots[0].Ref), m.Size(f))
	}
}

// TestSaveWritesAnonymousRoots: Save writes the one current format with
// empty root names, and LoadNamed reads it back in order, complement
// pairs intact.
func TestSaveWritesAnonymousRoots(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{f, m.Not(f)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(serialMagic)) {
		t.Fatalf("Save wrote magic %q", buf.Bytes()[:len(serialMagic)])
	}
	m2 := New(4)
	roots, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[0].Name != "" || roots[1].Name != "" {
		t.Fatalf("Save roots should be anonymous: %+v", roots)
	}
	if roots[0].Ref != m2.Xor(m2.Var(0), m2.And(m2.Var(1), m2.Var(3))) || roots[1].Ref != m2.Not(roots[0].Ref) {
		t.Fatal("saved functions or complement pair lost through LoadNamed")
	}
}

// TestLoadStripsV3Names: the unnamed Load entry point accepts v3 files,
// dropping the names but keeping the roots.
func TestLoadStripsV3Names(t *testing.T) {
	m := New(3)
	f := m.Or(m.Var(0), m.And(m.Var(1), m.Var(2)))
	var buf bytes.Buffer
	if err := m.SaveNamed(&buf, []NamedRoot{{Name: "reach", Ref: f}, {Name: "fair", Ref: True}}); err != nil {
		t.Fatal(err)
	}
	m2 := New(3)
	roots, err := m2.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 || roots[1] != True {
		t.Fatalf("Load on v3: got %v", roots)
	}
	want := m2.Or(m2.Var(0), m2.And(m2.Var(1), m2.Var(2)))
	if roots[0] != want {
		t.Fatal("Load on v3 lost the function")
	}
}

// TestSaveNamedRejectsHugeName: names beyond the record bound are a save
// error, not a file that can never be read back.
func TestSaveNamedRejectsHugeName(t *testing.T) {
	m := New(2)
	var buf bytes.Buffer
	err := m.SaveNamed(&buf, []NamedRoot{{Name: strings.Repeat("x", maxSavedNameLen+1), Ref: True}})
	if err == nil {
		t.Fatal("oversized name saved without error")
	}
}

// TestAdoptOrderErrors: adoption must reject files over a different
// variable set and non-permutation order records.
func TestAdoptOrderErrors(t *testing.T) {
	t.Run("var count mismatch", func(t *testing.T) {
		m := New(4)
		var buf bytes.Buffer
		if err := m.SaveNamed(&buf, []NamedRoot{{Name: "r", Ref: m.Var(0)}}); err != nil {
			t.Fatal(err)
		}
		m2 := New(6)
		if _, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), true); err == nil {
			t.Fatal("adopting a 4-var order into a 6-var manager must fail")
		}
		// Without adoption the same file loads fine (the manager is wider).
		if _, err := m2.LoadNamed(bytes.NewReader(buf.Bytes()), false); err != nil {
			t.Fatalf("plain load of narrower file: %v", err)
		}
	})
	t.Run("non-permutation order", func(t *testing.T) {
		var buf bytes.Buffer
		buf.WriteString("GOBDD3\n")
		u32 := func(xs ...uint32) {
			for _, x := range xs {
				var b [4]byte
				binary.LittleEndian.PutUint32(b[:], x)
				buf.Write(b[:])
			}
		}
		u32(2)    // nvars
		u32(0, 0) // order with a duplicate: not a permutation
		u32(0)    // node count
		u32(0)    // root count
		m := New(2)
		if _, err := m.LoadNamed(bytes.NewReader(buf.Bytes()), true); err == nil {
			t.Fatal("duplicate order entry adopted without error")
		}
		// Without adoption the order is only used to map levels; the file
		// (no nodes, no roots) still loads.
		if _, err := m.LoadNamed(bytes.NewReader(buf.Bytes()), false); err != nil {
			t.Fatalf("plain load of duplicate-order file: %v", err)
		}
	})
}
