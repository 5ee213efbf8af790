package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// TransE (Bordes et al. 2013) models a relation as a translation in
// embedding space: score(h, r, t) = −‖h + r − t‖₁.
type TransE struct {
	dim    int
	ent    *table
	rel    *table
	stores entStores
}

// NewTransE initializes a TransE model for the graph.
func NewTransE(g *kg.Graph, dim int, seed int64) *TransE {
	rng := rand.New(rand.NewSource(seed))
	scale := 6 / math.Sqrt(float64(dim))
	return &TransE{
		dim: dim,
		ent: newTable(rng, g.NumEntities, dim, scale),
		rel: newTable(rng, g.NumRelations, dim, scale),
	}
}

func (m *TransE) Name() string      { return "TransE" }
func (m *TransE) Dim() int          { return m.dim }
func (m *TransE) defaultLoss() Loss { return LossMargin }
func (m *TransE) reciprocal() bool  { return false }
func (m *TransE) numRelations() int { return len(m.rel.w) / m.dim }

// ScoreTriple returns −‖h + r − t‖₁.
func (m *TransE) ScoreTriple(h, r, t int32) float64 {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	s := 0.0
	for i := 0; i < m.dim; i++ {
		s += math.Abs(hv[i] + rv[i] - tv[i])
	}
	return -s
}

// ScoreTails scores (h, r, cand) for every candidate tail.
func (m *TransE) ScoreTails(h, r int32, cands []int32, out []float64) {
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = hv[i] + rv[i]
	}
	for c, cand := range cands {
		tv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < m.dim; i++ {
			s += math.Abs(q[i] - tv[i])
		}
		out[c] = -s
	}
}

// ScoreHeads scores (cand, r, t) for every candidate head.
func (m *TransE) ScoreHeads(r, t int32, cands []int32, out []float64) {
	rv, tv := m.rel.vec(r), m.ent.vec(t)
	q := make([]float64, m.dim)
	for i := range q {
		q[i] = tv[i] - rv[i] // score = -||h - (t - r)||
	}
	for c, cand := range cands {
		hv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < m.dim; i++ {
			s += math.Abs(hv[i] - q[i])
		}
		out[c] = -s
	}
}

// Universal batch-lane contract (see scoring.go): tail queries are h+r,
// head queries t−r (score = -||h - (t - r)||), scored by the L1 kernel.

func (m *TransE) entityTable() *table      { return m.ent }
func (m *TransE) entityStores() *entStores { return &m.stores }
func (m *TransE) entityBias() *table       { return nil }

func (m *TransE) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, h := range hs {
		hv := m.ent.vec(h)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = hv[k] + rv[k]
		}
	}
}

func (m *TransE) buildHeadQueries(ts []int32, r int32, qs []float64, _ *scratch) {
	rv := m.rel.vec(r)
	for i, t := range ts {
		tv := m.ent.vec(t)
		q := qs[i*m.dim : (i+1)*m.dim]
		for k := range q {
			q[k] = tv[k] - rv[k]
		}
	}
}

func (m *TransE) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreL1Batch(qs, block, m.dim, nc, out, tile)
}

func (m *TransE) kernelInt8(qs []float64, vals []int8, scale, zero []float32, nc int, out []float64, tile int, tbuf []float64) {
	scoreL1BatchInt8(qs, vals, scale, zero, m.dim, nc, out, tile, tbuf)
}

// gradStep: d(−‖h+r−t‖₁)/dh_i = −sign(h_i+r_i−t_i), etc.
func (m *TransE) gradStep(h, r, t int32, coeff, lr float64) {
	hv, rv, tv := m.ent.vec(h), m.rel.vec(r), m.ent.vec(t)
	gh := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	for i := 0; i < m.dim; i++ {
		d := hv[i] + rv[i] - tv[i]
		sg := 0.0
		if d > 0 {
			sg = 1
		} else if d < 0 {
			sg = -1
		}
		// dScore/dh_i = -sg ; chain with coeff = dLoss/dScore.
		gh[i] = coeff * -sg
		gt[i] = coeff * sg
	}
	m.ent.update(h, gh, lr)
	m.rel.update(r, gh, lr) // dScore/dr == dScore/dh
	m.ent.update(t, gt, lr)
}
