package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// RotatE (Sun et al. 2019) embeds entities in ℂ^d and relations as
// element-wise rotations (unit-modulus complex numbers parameterized by
// phases θ): score(h, r, t) = −Σᵢ |hᵢ·e^{iθᵢ} − tᵢ|, the negative L1 sum of
// complex moduli. Entity vectors are stored as [re..., im...]; relations
// store d/2 phases.
type RotatE struct {
	dim    int // total real dimensionality (even); d/2 complex dims
	half   int
	ent    *table
	rel    *table // phases, one per complex dimension
	stores entStores
}

// NewRotatE initializes a RotatE model; dim must be even.
func NewRotatE(g *kg.Graph, dim int, seed int64) *RotatE {
	if dim%2 != 0 {
		dim++
	}
	rng := rand.New(rand.NewSource(seed))
	m := &RotatE{
		dim:  dim,
		half: dim / 2,
		ent:  newTable(rng, g.NumEntities, dim, 0.5),
		rel:  newTable(rng, g.NumRelations, dim/2, math.Pi),
	}
	return m
}

func (m *RotatE) Name() string      { return "RotatE" }
func (m *RotatE) Dim() int          { return m.dim }
func (m *RotatE) defaultLoss() Loss { return LossMargin }
func (m *RotatE) reciprocal() bool  { return false }
func (m *RotatE) numRelations() int { return len(m.rel.w) / m.half }

// rotated writes h∘r (complex rotation of h by r's phases) into (qre, qim).
func (m *RotatE) rotated(hv, phases []float64, qre, qim []float64) {
	d := m.half
	for i := 0; i < d; i++ {
		c, s := math.Cos(phases[i]), math.Sin(phases[i])
		hr, hi := hv[i], hv[d+i]
		qre[i] = hr*c - hi*s
		qim[i] = hr*s + hi*c
	}
}

// ScoreTriple returns −Σ |h∘r − t| (complex modulus per dimension).
func (m *RotatE) ScoreTriple(h, r, t int32) float64 {
	d := m.half
	qre := make([]float64, d)
	qim := make([]float64, d)
	m.rotated(m.ent.vec(h), m.rel.vec(r), qre, qim)
	tv := m.ent.vec(t)
	s := 0.0
	for i := 0; i < d; i++ {
		dre, dim := qre[i]-tv[i], qim[i]-tv[d+i]
		s += math.Hypot(dre, dim)
	}
	return -s
}

// ScoreTails scores all candidate tails after rotating h once.
func (m *RotatE) ScoreTails(h, r int32, cands []int32, out []float64) {
	d := m.half
	qre := make([]float64, d)
	qim := make([]float64, d)
	m.rotated(m.ent.vec(h), m.rel.vec(r), qre, qim)
	for c, cand := range cands {
		tv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < d; i++ {
			dre, dim := qre[i]-tv[i], qim[i]-tv[d+i]
			s += math.Hypot(dre, dim)
		}
		out[c] = -s
	}
}

// ScoreHeads scores all candidate heads using the inverse rotation:
// |h∘r − t| = |h − t∘r⁻¹|.
func (m *RotatE) ScoreHeads(r, t int32, cands []int32, out []float64) {
	d := m.half
	phases := m.rel.vec(r)
	inv := make([]float64, d)
	for i := range inv {
		inv[i] = -phases[i]
	}
	qre := make([]float64, d)
	qim := make([]float64, d)
	m.rotated(m.ent.vec(t), inv, qre, qim)
	for c, cand := range cands {
		hv := m.ent.vec(cand)
		s := 0.0
		for i := 0; i < d; i++ {
			dre, dim := hv[i]-qre[i], hv[d+i]-qim[i]
			s += math.Hypot(dre, dim)
		}
		out[c] = -s
	}
}

// Universal batch-lane contract (see scoring.go): tail queries rotate h by
// r's phases, head queries rotate t by the inverse phases (|h∘r − t| =
// |h − t∘r⁻¹|), scored by the complex-modulus kernel.

func (m *RotatE) entityTable() *table      { return m.ent }
func (m *RotatE) entityStores() *entStores { return &m.stores }
func (m *RotatE) entityBias() *table       { return nil }

func (m *RotatE) buildTailQueries(hs []int32, r int32, qs []float64, _ *scratch) {
	phases := m.rel.vec(r)
	for i, h := range hs {
		q := qs[i*m.dim : (i+1)*m.dim]
		m.rotated(m.ent.vec(h), phases, q[:m.half], q[m.half:])
	}
}

func (m *RotatE) buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch) {
	phases := m.rel.vec(r)
	sc.phase = growF64(sc.phase, m.half)
	inv := sc.phase
	for i := range inv {
		inv[i] = -phases[i]
	}
	for i, t := range ts {
		q := qs[i*m.dim : (i+1)*m.dim]
		m.rotated(m.ent.vec(t), inv, q[:m.half], q[m.half:])
	}
}

func (m *RotatE) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreRotBatch(qs, block, m.dim, m.half, nc, out, tile)
}

func (m *RotatE) gradStep(h, r, t int32, coeff, lr float64) {
	d := m.half
	hv, tv := m.ent.vec(h), m.ent.vec(t)
	phases := m.rel.vec(r)
	gh := make([]float64, m.dim)
	gt := make([]float64, m.dim)
	gp := make([]float64, d)
	for i := 0; i < d; i++ {
		c, s := math.Cos(phases[i]), math.Sin(phases[i])
		hr, hi := hv[i], hv[d+i]
		qre := hr*c - hi*s
		qim := hr*s + hi*c
		dre, dim := qre-tv[i], qim-tv[d+i]
		mod := math.Hypot(dre, dim)
		if mod < 1e-12 {
			continue
		}
		// dScore/d· = −d|δ|/d· ; chain with coeff.
		ure, uim := dre/mod, dim/mod // d|δ|/dqre, d|δ|/dqim
		// q depends on h and θ: dqre/dhr = c, dqre/dhi = −s, ...
		gh[i] += coeff * -(ure*c + uim*s)
		gh[d+i] += coeff * -(-ure*s + uim*c)
		gt[i] += coeff * ure
		gt[d+i] += coeff * uim
		// dqre/dθ = −hr·s − hi·c = −qim ; dqim/dθ = hr·c − hi·s = qre.
		gp[i] += coeff * -(ure*(-qim) + uim*qre)
	}
	m.ent.update(h, gh, lr)
	m.ent.update(t, gt, lr)
	m.rel.update(r, gp, lr)
}
