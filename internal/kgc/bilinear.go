package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// DistMult (Yang et al. 2014) is the diagonal bilinear model:
// score(h, r, t) = Σᵢ hᵢ·rᵢ·tᵢ.
type DistMult struct {
	dim    int
	ent    *table
	rel    *table
	stores entStores
}

// NewDistMult initializes a DistMult model for the graph.
func NewDistMult(g *kg.Graph, dim int, seed int64) *DistMult {
	rng := rand.New(rand.NewSource(seed))
	scale := 1 / math.Sqrt(float64(dim))
	return &DistMult{
		dim: dim,
		ent: newTable(rng, g.NumEntities, dim, scale),
		rel: newTable(rng, g.NumRelations, dim, scale),
	}
}

func (m *DistMult) Name() string      { return "DistMult" }
func (m *DistMult) Dim() int          { return m.dim }
func (m *DistMult) defaultLoss() Loss { return LossLogistic }
func (m *DistMult) reciprocal() bool  { return false }
func (m *DistMult) numRelations() int { return len(m.rel.w) / m.dim }

// ScoreTriple returns Σᵢ hᵢrᵢtᵢ.
func (m *DistMult) ScoreTriple(h, r, t int32) float64 {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	s := 0.0
	for i := 0; i < m.dim; i++ {
		s += hv[i] * rv[i] * tv[i]
	}
	return s
}

// ScoreTails scores all candidate tails after precomputing h∘r.
func (m *DistMult) ScoreTails(h, r int32, cands []int32, out []float64) {
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = hv[i] * rv[i]
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// ScoreHeads scores all candidate heads after precomputing r∘t.
func (m *DistMult) ScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = rv[i] * tv[i]
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// Universal batch-lane contract (see scoring.go): tail queries are h∘r,
// head queries r∘t, scored by the dot kernel.

func (m *DistMult) entityTable() *table      { return m.ent }
func (m *DistMult) entityStores() *entStores { return &m.stores }
func (m *DistMult) entityBias() *table       { return nil }

func (m *DistMult) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, h := range hs {
		hv := m.ent.vec(h)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = hv[k] * rv[k]
		}
	}
}

func (m *DistMult) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, t := range ts {
		tv := m.ent.vec(t)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = rv[k] * tv[k]
		}
	}
}

func (m *DistMult) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreDotBatch(qs, block, m.dim, nc, out, tile)
}

func (m *DistMult) kernelInt8(qs []float64, vals []int8, scale, zero []float32, nc int, out []float64, tile int, tbuf []float64) {
	scoreDotBatchInt8(qs, vals, scale, zero, m.dim, nc, out, tile, tbuf)
}

func (m *DistMult) gradStep(h, r, t int32, coeff, lr float64) {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	gh := make([]float64, m.dim)
	gr := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	for i := 0; i < m.dim; i++ {
		gh[i] = coeff * rv[i] * tv[i]
		gr[i] = coeff * hv[i] * tv[i]
		gt[i] = coeff * hv[i] * rv[i]
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gr, lr)
	m.ent.update(t, gt, lr)
}

// ComplEx (Trouillon et al. 2016) embeds entities and relations in ℂ^d and
// scores with Re(⟨h, r, conj(t)⟩), fixing DistMult's inability to model
// antisymmetric relations. Vectors are stored as [re₀..re_{d/2}, im₀..].
type ComplEx struct {
	dim    int // total real dimensionality (must be even); d/2 complex dims
	half   int
	ent    *table
	rel    *table
	stores entStores
}

// NewComplEx initializes a ComplEx model; dim must be even.
func NewComplEx(g *kg.Graph, dim int, seed int64) *ComplEx {
	if dim%2 != 0 {
		dim++
	}
	rng := rand.New(rand.NewSource(seed))
	scale := 1 / math.Sqrt(float64(dim))
	return &ComplEx{
		dim:  dim,
		half: dim / 2,
		ent:  newTable(rng, g.NumEntities, dim, scale),
		rel:  newTable(rng, g.NumRelations, dim, scale),
	}
}

func (m *ComplEx) Name() string      { return "ComplEx" }
func (m *ComplEx) Dim() int          { return m.dim }
func (m *ComplEx) defaultLoss() Loss { return LossLogistic }
func (m *ComplEx) reciprocal() bool  { return false }
func (m *ComplEx) numRelations() int { return len(m.rel.w) / m.dim }

// ScoreTriple returns Re(⟨h, r, conj(t)⟩) =
// Σ (h_re·r_re·t_re + h_im·r_re·t_im + h_re·r_im·t_im − h_im·r_im·t_re).
func (m *ComplEx) ScoreTriple(h, r, t int32) float64 {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	d := m.half
	s := 0.0
	for i := 0; i < d; i++ {
		hr, hi := hv[i], hv[d+i]
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		s += hr*rr*tr + hi*rr*ti + hr*ri*ti - hi*ri*tr
	}
	return s
}

// queryTail precomputes q with score = Σ q_re·t_re + q_im·t_im.
func (m *ComplEx) queryTail(hv, rv []float64, q []float64) {
	d := m.half
	for i := 0; i < d; i++ {
		hr, hi := hv[i], hv[d+i]
		rr, ri := rv[i], rv[d+i]
		q[i] = hr*rr - hi*ri   // coefficient of t_re
		q[d+i] = hi*rr + hr*ri // coefficient of t_im
	}
}

// ScoreTails scores all candidate tails.
func (m *ComplEx) ScoreTails(h, r int32, cands []int32, out []float64) {
	q := make([]float64, m.dim)
	m.queryTail(m.ent.vec(h), m.rel.vec(r), q)
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// ScoreHeads scores all candidate heads: score = Σ q_re·h_re + q_im·h_im
// with q_re = r_re·t_re + r_im·t_im, q_im = r_re·t_im − r_im·t_re.
func (m *ComplEx) ScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	d := m.half
	q := make([]float64, m.dim)
	for i := 0; i < d; i++ {
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		q[i] = rr*tr + ri*ti
		q[d+i] = rr*ti - ri*tr
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// Universal batch-lane contract (see scoring.go): complex-product queries
// in [re..., im...] layout, scored by the dot kernel.

func (m *ComplEx) entityTable() *table      { return m.ent }
func (m *ComplEx) entityStores() *entStores { return &m.stores }
func (m *ComplEx) entityBias() *table       { return nil }

func (m *ComplEx) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, h := range hs {
		m.queryTail(m.ent.vec(h), rv, qs[i*m.dim:(i+1)*m.dim])
	}
}

func (m *ComplEx) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	d := m.half
	for i, t := range ts {
		tv := m.ent.vec(t)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := 0; k < d; k++ {
			rr, ri := rv[k], rv[d+k]
			tr, ti := tv[k], tv[d+k]
			q[k] = rr*tr + ri*ti
			q[d+k] = rr*ti - ri*tr
		}
	}
}

func (m *ComplEx) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreDotBatch(qs, block, m.dim, nc, out, tile)
}

func (m *ComplEx) kernelInt8(qs []float64, vals []int8, scale, zero []float32, nc int, out []float64, tile int, tbuf []float64) {
	scoreDotBatchInt8(qs, vals, scale, zero, m.dim, nc, out, tile, tbuf)
}

func (m *ComplEx) gradStep(h, r, t int32, coeff, lr float64) {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	d := m.half
	gh := make([]float64, m.dim)
	gr := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	for i := 0; i < d; i++ {
		hr, hi := hv[i], hv[d+i]
		rr, ri := rv[i], rv[d+i]
		tr, ti := tv[i], tv[d+i]
		gh[i] = coeff * (rr*tr + ri*ti)
		gh[d+i] = coeff * (rr*ti - ri*tr)
		gr[i] = coeff * (hr*tr + hi*ti)
		gr[d+i] = coeff * (hr*ti - hi*tr)
		gt[i] = coeff * (hr*rr - hi*ri)
		gt[d+i] = coeff * (hi*rr + hr*ri)
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gr, lr)
	m.ent.update(t, gt, lr)
}

// RESCAL (Nickel et al. 2011) scores with a full bilinear form per relation:
// score(h, r, t) = hᵀ·W_r·t with W_r ∈ R^{d×d}.
type RESCAL struct {
	dim    int
	ent    *table
	rel    *table // each row is a flattened d×d matrix
	stores entStores
}

// NewRESCAL initializes a RESCAL model.
func NewRESCAL(g *kg.Graph, dim int, seed int64) *RESCAL {
	rng := rand.New(rand.NewSource(seed))
	return &RESCAL{
		dim: dim,
		ent: newTable(rng, g.NumEntities, dim, 1/math.Sqrt(float64(dim))),
		rel: newTable(rng, g.NumRelations, dim*dim, 1/float64(dim)),
	}
}

func (m *RESCAL) Name() string      { return "RESCAL" }
func (m *RESCAL) Dim() int          { return m.dim }
func (m *RESCAL) defaultLoss() Loss { return LossLogistic }
func (m *RESCAL) reciprocal() bool  { return false }
func (m *RESCAL) numRelations() int { return len(m.rel.w) / (m.dim * m.dim) }

// ScoreTriple returns hᵀ·W_r·t.
func (m *RESCAL) ScoreTriple(h, r, t int32) float64 {
	hv, tv := m.ent.vec(h), m.ent.vec(t)
	w := m.rel.vec(r)
	d := m.dim
	s := 0.0
	for i := 0; i < d; i++ {
		row := w[i*d : i*d+d]
		s += hv[i] * dot(row, tv)
	}
	return s
}

// ScoreTails precomputes q = hᵀW_r then dots with each candidate.
func (m *RESCAL) ScoreTails(h, r int32, cands []int32, out []float64) {
	hv := m.ent.vec(h)
	w := m.rel.vec(r)
	d := m.dim
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		hi := hv[i]
		row := w[i*d : i*d+d]
		for j := 0; j < d; j++ {
			q[j] += hi * row[j]
		}
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// ScoreHeads precomputes q = W_r·t then dots with each candidate.
func (m *RESCAL) ScoreHeads(r, t int32, cands []int32, out []float64) {
	tv := m.ent.vec(t)
	w := m.rel.vec(r)
	d := m.dim
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = dot(w[i*d:i*d+d], tv)
	}
	for c, cand := range cands {
		out[c] = dot(q, m.ent.vec(cand))
	}
}

// Universal batch-lane contract (see scoring.go): tail queries are hᵀW_r,
// head queries W_r·t, scored by the dot kernel.

func (m *RESCAL) entityTable() *table      { return m.ent }
func (m *RESCAL) entityStores() *entStores { return &m.stores }
func (m *RESCAL) entityBias() *table       { return nil }

func (m *RESCAL) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	w := m.rel.vec(r)
	d := m.dim
	for i, h := range hs {
		hv := m.ent.vec(h)
		q := qs[i*d : (i+1)*d]
		for j := range q {
			q[j] = 0
		}
		for a := 0; a < d; a++ {
			ha := hv[a]
			row := w[a*d : a*d+d]
			for j := 0; j < d; j++ {
				q[j] += ha * row[j]
			}
		}
	}
}

func (m *RESCAL) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	w := m.rel.vec(r)
	d := m.dim
	for i, t := range ts {
		tv := m.ent.vec(t)
		q := qs[i*d : (i+1)*d]
		for a := 0; a < d; a++ {
			q[a] = dot(w[a*d:a*d+d], tv)
		}
	}
}

func (m *RESCAL) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreDotBatch(qs, block, m.dim, nc, out, tile)
}

func (m *RESCAL) gradStep(h, r, t int32, coeff, lr float64) {
	hv, tv := m.ent.vec(h), m.ent.vec(t)
	w := m.rel.vec(r)
	d := m.dim
	gh := make([]float64, d)
	gt := make([]float64, d)
	gw := make([]float64, d*d)
	for i := 0; i < d; i++ {
		row := w[i*d : i*d+d]
		gh[i] = coeff * dot(row, tv)
		for j := 0; j < d; j++ {
			gw[i*d+j] = coeff * hv[i] * tv[j]
			gt[j] += coeff * hv[i] * row[j]
		}
	}
	m.ent.update(h, gh, lr)
	m.ent.update(t, gt, lr)
	m.rel.update(r, gw, lr)
}
