package bdd

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// goldenSave saves a nontrivial function family (including a
// complemented root) as anonymous roots and returns the raw bytes.
func goldenSave(t *testing.T) []byte {
	t.Helper()
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{f, m.Not(f), m.Or(m.Var(2), f)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenV3 saves the same function family as named warm-start roots and
// returns the raw v3 bytes.
func goldenV3(t *testing.T) []byte {
	t.Helper()
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	err := m.SaveNamed(&buf, []NamedRoot{
		{Name: "reach", Ref: f},
		{Name: "fair", Ref: m.Not(f)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadNoPanic runs Load and converts any panic into a test failure that
// names the mutated input, so one bad offset doesn't mask the rest of
// the sweep.
func loadNoPanic(t *testing.T, m *Manager, data []byte, what string) (roots []Ref, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: Load panicked: %v", what, r)
			err = nil
			roots = nil
		}
	}()
	return m.Load(bytes.NewReader(data))
}

// TestLoadTruncatedEveryPrefix feeds every strict prefix of a valid
// stream, with anonymous and with named roots, to Load: each must return an error — there is no prefix
// of a saved BDD that is itself a complete file — and none may panic.
func TestLoadTruncatedEveryPrefix(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v3_anon", goldenSave(t)},
		{"v3", goldenV3(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for cut := 0; cut < len(tc.data); cut++ {
				m := New(4)
				if _, err := loadNoPanic(t, m, tc.data[:cut], "prefix"); err == nil {
					t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(tc.data))
				}
			}
		})
	}
}

// TestLoadBitFlipSweep mutates every byte of the golden streams (each
// of the 8 bit flips, one at a time). Load may reject the mutant or may
// accept it — a flipped sign bit, say, decodes to the complement, which
// is a perfectly valid file — but it must never panic, and any roots it
// does return must be structurally sound in the target manager.
func TestLoadBitFlipSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v3_anon", goldenSave(t)},
		{"v3", goldenV3(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for pos := 0; pos < len(tc.data); pos++ {
				for bit := 0; bit < 8; bit++ {
					mutant := append([]byte(nil), tc.data...)
					mutant[pos] ^= 1 << bit
					m := New(4)
					roots, err := loadNoPanic(t, m, mutant, "bit flip")
					if err != nil {
						continue
					}
					for _, r := range roots {
						// Size walks the DAG from r; a dangling or
						// out-of-arena ref would be caught here.
						m.checkRef(r)
						m.Size(r)
						if got := m.Not(m.Not(r)); got != r {
							t.Fatalf("pos %d bit %d: loaded root not involutive under Not", pos, bit)
						}
					}
				}
			}
		})
	}
}

// TestLoadCorruptRecords exercises each explicit rejection path of the
// loader with targeted corruptions of a known-good stream, checking the
// error (not a panic, not a silent success) surfaces.
func TestLoadCorruptRecords(t *testing.T) {
	base := goldenSave(t)
	u32at := func(data []byte, off int, v uint32) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	const (
		hdr      = 7       // magic
		offNvars = hdr     // nvars (4)
		offOrder = hdr + 4 // 4 vars × 4 bytes
		offCount = offOrder + 16
		offNodes = offCount + 4 // first node triple
	)
	// The trailer is the root count, then per root (three of them) an
	// empty name's length word and the encoded edge.
	offRootCount := len(base) - 4 - 3*8
	cases := []struct {
		name string
		data []byte
	}{
		{"wrong magic", append([]byte("NOTBDD!"), base[hdr:]...)},
		{"empty", nil},
		{"magic only", base[:hdr]},
		{"variable overflow", u32at(base, offNvars, 99)},
		{"order entry out of range", u32at(base, offOrder, 7)},
		{"node level out of range", u32at(base, offNodes, 12)},
		{"forward edge reference", u32at(base, offNodes+4, 500<<1)},
		{"huge node count, truncated body", u32at(base, offCount, 0xFFFFFFF0)},
		{"huge root count, truncated body", u32at(base, offRootCount, 0xFFFFFFF0)},
		{"root index out of range", u32at(base, len(base)-4, 500<<1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(4)
			if _, err := loadNoPanic(t, m, tc.data, tc.name); err == nil {
				t.Fatalf("corrupt stream loaded without error")
			}
		})
	}
}

// TestLoadV3CorruptRecords exercises the rejection paths specific to
// the v3 named-root trailer: name lengths beyond the record bound,
// names longer than the remaining stream, and out-of-range root edges.
func TestLoadV3CorruptRecords(t *testing.T) {
	base := goldenV3(t)
	const hdr = 7
	nnodes := binary.LittleEndian.Uint32(base[hdr+4+16:])
	// Offset of the root count, then of the first root's name-length word.
	rootCountOff := hdr + 4 + 16 + 4 + int(nnodes)*12
	nameLenOff := rootCountOff + 4
	firstName := int(binary.LittleEndian.Uint32(base[nameLenOff:]))
	firstRootOff := nameLenOff + 4 + firstName
	u32at := func(data []byte, off int, v uint32) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"huge name length", u32at(base, nameLenOff, 0xFFFFFFF0)},
		{"name length over bound", u32at(base, nameLenOff, maxSavedNameLen+1)},
		{"name longer than stream", u32at(base, nameLenOff, maxSavedNameLen)},
		{"root edge out of range", u32at(base, firstRootOff, 500<<1)},
		{"huge root count, truncated trailer", u32at(base, rootCountOff, 0xFFFFFFF0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(4)
			if _, err := loadNoPanic(t, m, tc.data, tc.name); err == nil {
				t.Fatalf("corrupt v3 stream loaded without error")
			}
		})
	}
}

// TestLoadSignBitCorruption flips exactly the complement bit of every
// edge and root record in a saved stream: each mutant is a VALID file
// denoting different functions, so Load must succeed and the loaded
// roots must still be canonical (involutive complements, consistent
// with a fresh evaluation).
func TestLoadSignBitCorruption(t *testing.T) {
	m := New(4)
	f := m.Xor(m.Var(0), m.And(m.Var(1), m.Var(3)))
	var buf bytes.Buffer
	if err := m.Save(&buf, []Ref{f, m.Not(f)}); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	// Record layout after the 7-byte magic: nvars, order×4, nnodes, then
	// triples (lvl, low, high) and finally nroots + roots, each an empty
	// name's length word and the encoded edge. Edge fields are the 2nd
	// and 3rd word of each triple, and every root's edge word.
	var nnodes uint32 = binary.LittleEndian.Uint32(base[7+4+16:])
	edgeOffsets := []int{}
	nodeBase := 7 + 4 + 16 + 4
	for i := uint32(0); i < nnodes; i++ {
		off := nodeBase + int(i)*12
		edgeOffsets = append(edgeOffsets, off+4, off+8)
	}
	rootBase := nodeBase + int(nnodes)*12 + 4
	nroots := binary.LittleEndian.Uint32(base[rootBase-4:])
	for i := uint32(0); i < nroots; i++ {
		edgeOffsets = append(edgeOffsets, rootBase+int(i)*8+4)
	}
	for _, off := range edgeOffsets {
		mutant := append([]byte(nil), base...)
		mutant[off] ^= 1 // complement bit of the little-endian word
		m2 := New(4)
		roots, err := loadNoPanic(t, m2, mutant, "sign flip")
		if err != nil {
			t.Fatalf("offset %d: sign-flipped stream must stay loadable: %v", off, err)
		}
		if len(roots) != 2 {
			t.Fatalf("offset %d: got %d roots", off, len(roots))
		}
		for _, r := range roots {
			m2.checkRef(r)
			if got := m2.Not(m2.Not(r)); got != r {
				t.Fatalf("offset %d: root not involutive under Not", off)
			}
		}
	}
}
