package kripke

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
)

// randomDNF builds a random disjunction of literal cubes over every
// BDD variable of m (current and next state alike).
func randomDNF(r *rand.Rand, m *bdd.Manager) bdd.Ref {
	f := bdd.False
	for t := 0; t < 2+r.Intn(4); t++ {
		cube := bdd.True
		for v := 0; v < m.NumVars(); v++ {
			switch r.Intn(3) {
			case 0:
				cube = m.And(cube, m.Var(v))
			case 1:
				cube = m.And(cube, m.NVar(v))
			}
		}
		f = m.Or(f, cube)
	}
	return f
}

// TestCacheHitRateMatchedTotals: after random Ite/Exists/AndExists
// traffic plus image steps, sequentially and on the parallel engine,
// RelStats counts no more computed-cache hits than lookups, so the
// rate benchgate gates on is a fraction.
func TestCacheHitRateMatchedTotals(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for seed := int64(0); seed < 24; seed++ {
			r := rand.New(rand.NewSource(seed))
			s := buildInterleaved(r, 5, 1)
			s.EnableDisjunct(true)
			s.SetWorkers(workers)
			m := s.M
			if workers > 1 {
				m.SetParallelGranularity(1)
			}
			var pool []bdd.Ref
			for i := 0; i < 6; i++ {
				pool = append(pool, m.Protect(randomDNF(r, m)))
			}
			pick := func() bdd.Ref { return pool[r.Intn(len(pool))] }
			cube := func() bdd.Ref {
				var vs []int
				for v := 0; v < m.NumVars(); v++ {
					if r.Intn(2) == 0 {
						vs = append(vs, v)
					}
				}
				return m.Cube(vs)
			}
			s.ResetRelStats()
			// Each seed leans on one operation (ITE, Exists, AndExists,
			// image), three draws in four, so every cache gets to
			// dominate the totals in some run.
			lean := int(seed % 4)
			for i := 0; i < 120; i++ {
				op := lean
				if r.Intn(4) == 0 {
					op = r.Intn(4)
				}
				var res bdd.Ref
				switch op {
				case 0:
					res = m.Ite(pick(), pick(), pick())
				case 1:
					res = m.Exists(pick(), cube())
				case 2:
					// Replayed: fixpoints repeat relational products,
					// and a replay is answered by the AndExists cache
					// alone.
					f, g, c := pick(), pick(), cube()
					for k := 0; k < 4; k++ {
						res = m.AndExists(f, g, c)
					}
				default:
					res = s.Image(pick())
				}
				pool = append(pool, m.Protect(res))
			}
			rs := s.RelStats()
			if rs.CacheLookups == 0 || rs.CacheHits > rs.CacheLookups {
				t.Fatalf("workers=%d seed=%d: %d hits / %d lookups", workers, seed, rs.CacheHits, rs.CacheLookups)
			}
			if rate := rs.CacheHitRate(); rate < 0 || rate > 1 {
				t.Fatalf("workers=%d seed=%d: hit rate %v outside [0,1]", workers, seed, rate)
			}
		}
	}
}
