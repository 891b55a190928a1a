package core

import (
	"repro/internal/bdd"
	"repro/internal/kripke"
)

// CloseCycle exposes closeCycle to the external closure tests, which
// compile models through packages that import core.
func (g *Generator) CloseCycle(f bdd.Ref, sPrime, t kripke.State) ([]kripke.State, bool, error) {
	return g.closeCycle(f, sPrime, t)
}
