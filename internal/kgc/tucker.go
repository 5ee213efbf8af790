package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// TuckER (Balažević et al. 2019) scores triples through a shared core
// tensor: score(h, r, t) = W ×₁ h ×₂ r ×₃ t with W ∈ R^{d×d×d}. The core
// makes every gradient step O(d³), so experiments keep TuckER's d smaller
// than the diagonal models', as the original does (d_r ≪ d_e).
type TuckER struct {
	dim    int
	ent    *table
	rel    *table
	core   *table // single row of d³ weights
	stores entStores
}

// NewTuckER initializes a TuckER model.
func NewTuckER(g *kg.Graph, dim int, seed int64) *TuckER {
	rng := rand.New(rand.NewSource(seed))
	m := &TuckER{
		dim:  dim,
		ent:  newTable(rng, g.NumEntities, dim, 1/math.Sqrt(float64(dim))),
		rel:  newTable(rng, g.NumRelations, dim, 1/math.Sqrt(float64(dim))),
		core: newSharedTable(rng, 1, dim*dim*dim, 1/float64(dim)),
	}
	m.core.l2 = 1e-4
	return m
}

func (m *TuckER) Name() string      { return "TuckER" }
func (m *TuckER) Dim() int          { return m.dim }
func (m *TuckER) defaultLoss() Loss { return LossLogistic }
func (m *TuckER) reciprocal() bool  { return false }
func (m *TuckER) numRelations() int { return len(m.rel.w) / m.dim }

// relMatInto computes M_r[i*d+k] = Σ_j r_j·W[i][j][k] — the core tensor
// contracted with the relation once. Every query of the relation then needs
// only an O(d²) product with M_r: tails use q = hᵀM_r, heads q = M_r·t.
// This factorization is what makes TuckER's batch lane pay the O(d³)
// contraction once per relation chunk instead of once per query.
func (m *TuckER) relMatInto(rv, mat []float64) {
	d := m.dim
	w := m.core.vec(0)
	for i := range mat {
		mat[i] = 0
	}
	for i := 0; i < d; i++ {
		out := mat[i*d : i*d+d]
		for j := 0; j < d; j++ {
			rj := rv[j]
			if rj == 0 {
				continue
			}
			row := w[(i*d+j)*d : (i*d+j)*d+d]
			for k := range out {
				out[k] += rj * row[k]
			}
		}
	}
}

// tailQuery computes q = hᵀM_r (q_k = Σ_i h_i·M_r[i][k]).
func tailQuery(hv, mat, q []float64) {
	d := len(q)
	for k := range q {
		q[k] = 0
	}
	for i := 0; i < d; i++ {
		hi := hv[i]
		if hi == 0 {
			continue
		}
		row := mat[i*d : i*d+d]
		for k := range q {
			q[k] += hi * row[k]
		}
	}
}

// headQuery computes q = M_r·t (q_i = Σ_k M_r[i][k]·t_k).
func headQuery(tv, mat, q []float64) {
	d := len(q)
	for i := 0; i < d; i++ {
		q[i] = dot(mat[i*d:i*d+d], tv)
	}
}

// relMat returns M_r, from the scratch cache when it already holds this
// relation (one contraction serves a whole relation chunk: batch queries,
// true-triple scores and both directions).
func (m *TuckER) relMat(r int32, sc *scratch) []float64 {
	d := m.dim
	if sc == nil {
		mat := make([]float64, d*d)
		m.relMatInto(m.rel.vec(r), mat)
		return mat
	}
	if sc.relMatOK && sc.relMatR == r && len(sc.relMat) == d*d {
		return sc.relMat
	}
	sc.relMat = growF64(sc.relMat, d*d)
	m.relMatInto(m.rel.vec(r), sc.relMat)
	sc.relMatR, sc.relMatOK = r, true
	return sc.relMat
}

// ScoreTriple returns W ×₁ h ×₂ r ×₃ t.
func (m *TuckER) ScoreTriple(h, r, t int32) float64 {
	q := make([]float64, m.dim)
	tailQuery(m.ent.vec(h), m.relMat(r, nil), q)
	return dot(q, m.ent.vec(t))
}

// ScoreTails contracts the core with (h, r) once, then dots per candidate.
func (m *TuckER) ScoreTails(h, r int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	tailQuery(m.ent.vec(h), m.relMat(r, nil), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// ScoreHeads contracts the core with (r, t) once, then dots per candidate.
func (m *TuckER) ScoreHeads(r, t int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	headQuery(m.ent.vec(t), m.relMat(r, nil), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// Universal batch-lane contract (see scoring.go). The model's own per-query
// methods recompute the O(d³) core contraction per call; the batch lane
// reuses the chunk's cached M_r.

func (m *TuckER) entityTable() *table      { return m.ent }
func (m *TuckER) entityStores() *entStores { return &m.stores }
func (m *TuckER) entityBias() *table       { return nil }

func (m *TuckER) buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch) {
	d := m.dim
	mat := m.relMat(r, sc)
	for i, h := range hs {
		tailQuery(m.ent.vec(h), mat, qs[i*d:(i+1)*d])
	}
}

func (m *TuckER) buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch) {
	d := m.dim
	mat := m.relMat(r, sc)
	for i, t := range ts {
		headQuery(m.ent.vec(t), mat, qs[i*d:(i+1)*d])
	}
}

func (m *TuckER) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreDotBatch(qs, block, m.dim, nc, out, tile)
}

func (m *TuckER) gradStep(h, r, t int32, coeff, lr float64) {
	d := m.dim
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	w := m.core.vec(0)
	gh := make([]float64, d)
	gr := make([]float64, d)
	gt := make([]float64, d)
	gw := make([]float64, d*d*d)
	for i := 0; i < d; i++ {
		hi := hv[i]
		for j := 0; j < d; j++ {
			rj := rv[j]
			hr := hi * rj
			off := (i*d + j) * d
			row := w[off : off+d]
			var rowDotT float64
			for k := 0; k < d; k++ {
				tk := tv[k]
				rowDotT += row[k] * tk
				gw[off+k] = coeff * hr * tk
				gt[k] += coeff * hr * row[k]
			}
			gh[i] += coeff * rj * rowDotT
			gr[j] += coeff * hi * rowDotT
		}
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gr, lr)
	m.ent.update(t, gt, lr)
	m.core.update(0, gw, lr)
}
