package bdd

// Serialization of BDDs in a compact binary format, so that computed
// transition relations and reachable-state sets can be checkpointed and
// shared between runs. A file ("GOBDD3\n") stores the variable order,
// the node triples of the reachable subgraph in topological order, and
// the roots with their names. Loading replays the nodes through ITE, so
// the result is canonical in the target manager even if its arena
// layout or variable order differs.
//
// Complement edges are carried on edges: the node table holds plain
// nodes only (table index 0 is the terminal False) and every edge and
// root is encoded as (tableIndex << 1) | complementBit, decoded through
// Not on load — which works whether the target manager uses complement
// edges or the structural representation. Each root record is a
// length-prefixed UTF-8 name followed by its encoded edge; SaveNamed
// writes the names, Save writes empty ones.
//
// Because the saved variable order travels with the file, LoadNamed can
// also adopt it — reordering the target manager to the saved (sifted)
// order before decoding — so a restarted process pays the
// dynamic-reordering work of a model once, ever.
//
// Only this format is read. Files of the earlier formats ("GOBDD1\n",
// "GOBDD2\n") fail with an *UnsupportedVersionError; warm-start records
// are a cache, so such a file is simply a miss.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

const (
	serialMagicPrefix = "GOBDD"
	serialMagic       = "GOBDD3\n"
)

// UnsupportedVersionError reports a saved-BDD file written in a format
// version this package no longer reads.
type UnsupportedVersionError struct {
	Version string // the version tag of the file's magic, e.g. "2"
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("bdd: unsupported saved-BDD format version %q (only version 3 is read)", e.Version)
}

// maxSavedNameLen bounds the name records of a v3 file; anything longer
// is a corrupt record, not a legitimate root name.
const maxSavedNameLen = 1 << 12

// NamedRoot pairs a root BDD with a symbolic name, for warm-start
// records where the loader must know which root is which (e.g. the
// reachable-state set vs. the fair-state set of a model).
type NamedRoot struct {
	Name string
	Ref  Ref
}

// Save writes the given roots (and the manager's variable order) to w
// as anonymous roots; Load reads them back in order.
func (m *Manager) Save(w io.Writer, roots []Ref) error {
	named := make([]NamedRoot, len(roots))
	for i, r := range roots {
		named[i] = NamedRoot{Ref: r}
	}
	return m.SaveNamed(w, named)
}

// SaveNamed writes the named roots (and the manager's variable order)
// to w.
func (m *Manager) SaveNamed(w io.Writer, roots []NamedRoot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(serialMagic); err != nil {
		return err
	}
	refs := make([]Ref, len(roots))
	for i, r := range roots {
		if len(r.Name) > maxSavedNameLen {
			return fmt.Errorf("bdd: root name %q too long to save", r.Name[:32]+"...")
		}
		refs[i] = r.Ref
	}
	enc, err := m.writeOrderAndNodes(bw, refs)
	if err != nil {
		return err
	}
	if err := writeU32To(bw, uint32(len(roots))); err != nil {
		return err
	}
	for _, r := range roots {
		if err := writeU32To(bw, uint32(len(r.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(r.Name); err != nil {
			return err
		}
		if err := writeU32To(bw, enc(r.Ref)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeU32To(bw *bufio.Writer, x uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], x)
	_, err := bw.Write(buf[:])
	return err
}

// writeOrderAndNodes writes the variable order and the topologically
// ordered node table of the given roots and returns the edge encoder ((tableIndex << 1) | complementBit)
// for the trailing root records.
func (m *Manager) writeOrderAndNodes(bw *bufio.Writer, roots []Ref) (func(Ref) uint32, error) {
	if err := writeU32To(bw, uint32(m.NumVars())); err != nil {
		return nil, err
	}
	for _, v := range m.level2var {
		if err := writeU32To(bw, uint32(v)); err != nil {
			return nil, err
		}
	}

	// Topological order over plain refs: children before parents. Table
	// index 0 is the terminal; stored nodes start at 1.
	index := map[Ref]uint32{0: 0}
	var order []Ref
	var visit func(Ref)
	visit = func(f Ref) {
		f &^= compBit
		if _, ok := index[f]; ok {
			return
		}
		n := &m.nodes[f]
		visit(n.low)
		visit(n.high)
		index[f] = uint32(len(order) + 1)
		order = append(order, f)
	}
	for _, r := range roots {
		m.checkRef(r)
		visit(r)
	}
	enc := func(f Ref) uint32 {
		e := index[f&^compBit] << 1
		if f&compBit != 0 {
			e |= 1
		}
		return e
	}

	if err := writeU32To(bw, uint32(len(order))); err != nil {
		return nil, err
	}
	for _, f := range order {
		n := &m.nodes[f]
		if err := writeU32To(bw, n.lvl&^markBit); err != nil {
			return nil, err
		}
		if err := writeU32To(bw, enc(n.low)); err != nil {
			return nil, err
		}
		if err := writeU32To(bw, enc(n.high)); err != nil {
			return nil, err
		}
	}
	return enc, nil
}

// Load reads roots previously written by Save or SaveNamed into the
// manager, dropping their names. The manager must have at least as many
// variables as the saved order; the saved levels are interpreted
// through the *saved* order, i.e. the function is reconstructed over
// the same variable indices it was built over (levels follow the target
// manager's current order).
func (m *Manager) Load(r io.Reader) ([]Ref, error) {
	named, err := m.LoadNamed(r, false)
	if err != nil {
		return nil, err
	}
	roots := make([]Ref, len(named))
	for i, nr := range named {
		roots[i] = nr.Ref
	}
	return roots, nil
}

// LoadNamed reads a saved BDD file and returns its roots with their
// names (empty for roots written by Save). When adoptOrder is true the
// manager is reordered to the saved variable order before the nodes
// are decoded — the warm-start path: the sifted order computed by a
// previous process is restored instead of being re-derived by dynamic
// reordering. Adoption requires the saved order to cover exactly the
// manager's variables. A file of an earlier format version fails with
// an *UnsupportedVersionError.
func (m *Manager) LoadNamed(r io.Reader, adoptOrder bool) ([]NamedRoot, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(serialMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if s := string(magic); s != serialMagic {
		if tag, ok := strings.CutPrefix(s, serialMagicPrefix); ok && strings.HasSuffix(tag, "\n") {
			return nil, &UnsupportedVersionError{Version: strings.TrimSuffix(tag, "\n")}
		}
		return nil, errors.New("bdd: bad magic (not a saved BDD)")
	}
	table, dec, err := m.loadNodeTable(br, adoptOrder)
	if err != nil {
		return nil, err
	}
	nroots, err := readU32From(br)
	if err != nil {
		return nil, err
	}
	roots := make([]NamedRoot, 0, clampPrealloc(nroots))
	for i := uint32(0); i < nroots; i++ {
		nameLen, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		if nameLen > maxSavedNameLen {
			return nil, errors.New("bdd: corrupt name record")
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		e, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		f, err := dec(e, uint32(len(table)))
		if err != nil {
			return nil, errors.New("bdd: corrupt root record")
		}
		roots = append(roots, NamedRoot{Name: string(name), Ref: f})
	}
	return roots, nil
}

// adoptSavedOrder reorders the manager to the saved level-to-variable
// map. It refuses partial orders: adoption only makes sense when the
// file was written by a manager over the same variable set.
func (m *Manager) adoptSavedOrder(savedLevel2Var []int) error {
	if len(savedLevel2Var) != m.NumVars() {
		return fmt.Errorf("bdd: cannot adopt saved order over %d variables into a manager with %d",
			len(savedLevel2Var), m.NumVars())
	}
	seen := make([]bool, len(savedLevel2Var))
	for _, v := range savedLevel2Var {
		if v < 0 || v >= len(seen) || seen[v] {
			return errors.New("bdd: saved order is not a permutation")
		}
		seen[v] = true
	}
	m.Reorder(savedLevel2Var, nil)
	return nil
}

func readU32From(br *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// loadOrder reads the variable count and saved level-to-variable map.
func (m *Manager) loadOrder(br *bufio.Reader) ([]int, error) {
	nvars, err := readU32From(br)
	if err != nil {
		return nil, err
	}
	if int(nvars) > m.NumVars() {
		return nil, fmt.Errorf("bdd: saved BDD uses %d variables, manager has %d", nvars, m.NumVars())
	}
	savedLevel2Var := make([]int, nvars)
	for i := range savedLevel2Var {
		v, err := readU32From(br)
		if err != nil {
			return nil, err
		}
		if int(v) >= m.NumVars() {
			return nil, fmt.Errorf("bdd: saved variable %d out of range", v)
		}
		savedLevel2Var[i] = int(v)
	}
	return savedLevel2Var, nil
}

// loadNodeTable reads the saved order and the node table, optionally
// adopting the saved variable order first, and returns the decoded
// table plus the edge decoder.
func (m *Manager) loadNodeTable(br *bufio.Reader, adoptOrder bool) ([]Ref, func(e, limit uint32) (Ref, error), error) {
	savedLevel2Var, err := m.loadOrder(br)
	if err != nil {
		return nil, nil, err
	}
	if adoptOrder {
		if err := m.adoptSavedOrder(savedLevel2Var); err != nil {
			return nil, nil, err
		}
	}
	nvars := uint32(len(savedLevel2Var))

	nnodes, err := readU32From(br)
	if err != nil {
		return nil, nil, err
	}
	// Grown incrementally: a corrupt count must fail at the first short
	// read, not preallocate gigabytes.
	table := make([]Ref, 1, clampPrealloc(nnodes+1))
	table[0] = False
	// dec resolves a sign-encoded edge against the already-built prefix.
	dec := func(e, limit uint32) (Ref, error) {
		if e>>1 >= limit {
			return 0, errors.New("bdd: corrupt edge record")
		}
		f := table[e>>1]
		if e&1 != 0 {
			f = m.Not(f)
		}
		return f, nil
	}
	for i := uint32(0); i < nnodes; i++ {
		lvl, err := readU32From(br)
		if err != nil {
			return nil, nil, err
		}
		lowEnc, err := readU32From(br)
		if err != nil {
			return nil, nil, err
		}
		highEnc, err := readU32From(br)
		if err != nil {
			return nil, nil, err
		}
		if lvl >= nvars {
			return nil, nil, errors.New("bdd: corrupt node record")
		}
		low, err := dec(lowEnc, i+1)
		if err != nil {
			return nil, nil, err
		}
		high, err := dec(highEnc, i+1)
		if err != nil {
			return nil, nil, err
		}
		v := savedLevel2Var[lvl]
		// Rebuild through ITE so a different variable order in the
		// target manager still yields the correct (canonical) function.
		table = append(table, m.iteSeq(m.Var(v), high, low))
	}
	return table, dec, nil
}

// clampPrealloc bounds slice preallocation from untrusted counts; the
// slices grow past it by appending, after the stream has actually
// delivered that many records.
func clampPrealloc(n uint32) int {
	const maxPrealloc = 1 << 16
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}
