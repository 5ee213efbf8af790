package kgc

import (
	"math"
	"math/rand"

	"kgeval/internal/kg"
)

// ConvE (Dettmers et al. 2018) reshapes head and relation embeddings into a
// stacked 2D "image", applies a 3×3 convolution with C channels, flattens,
// projects back to embedding space, and dots the result with the tail:
//
//	f(h, r) = BN(FC(vec(ReLU(BN(conv2d([h; r]))))))     s = f(h, r)·t + b_t
//
// The batch-normalization layers are essential — they make the conv/FC
// pathway scale-invariant, which is what lets ConvE train at all. Here BN
// uses running statistics updated online during training (one sample per
// step) and frozen at evaluation, the standard inference-mode approximation.
//
// Head queries use reciprocal relations (id r+|R|), the standard 1-N ConvE
// trick: score(?, r, t) = score over tails of (t, r⁻¹, ?). The trainer
// detects this via reciprocal() and corrupts tails only, in both directions.
type ConvE struct {
	dim      int
	nrel     int // original relation count; rel table has 2·nrel rows
	dw, dh   int // embedding reshape: dh rows × dw cols; image is 2dh × dw
	channels int

	ent     *table
	entBias *table // per-entity additive bias
	rel     *table
	kern    *table // channels × 3×3 kernels (single input channel)
	kernB   *table // per-channel bias
	fc      *table // (channels·2dh·dw) × dim, stored row-major by input unit
	fcB     *table // dim biases

	// Running batch-norm statistics (momentum bnM). bnConv* are per
	// channel over the conv output map; bnFC* are per output coordinate.
	bnConvMean, bnConvVar []float64
	bnFCMean, bnFCVar     []float64
	bnM                   float64

	stores entStores
}

// NewConvE initializes a ConvE model. dim is rounded up to a multiple of 4
// so the embedding reshapes into a (dim/4)×4 grid.
func NewConvE(g *kg.Graph, dim int, seed int64) *ConvE {
	if dim%4 != 0 {
		dim += 4 - dim%4
	}
	rng := rand.New(rand.NewSource(seed))
	m := &ConvE{
		dim:      dim,
		nrel:     g.NumRelations,
		dw:       4,
		dh:       dim / 4,
		channels: 4,
		bnM:      0.99,
	}
	flat := m.channels * 2 * m.dh * m.dw
	m.ent = newTable(rng, g.NumEntities, dim, 1/math.Sqrt(float64(dim)))
	m.entBias = newTable(rng, g.NumEntities, 1, 0)
	m.rel = newTable(rng, 2*g.NumRelations, dim, 1/math.Sqrt(float64(dim)))
	m.kern = newSharedTable(rng, m.channels, 9, 1.0/3)
	m.kernB = newSharedTable(rng, 1, m.channels, 0)
	m.fc = newSharedTable(rng, 1, flat*dim, 1/math.Sqrt(float64(flat)))
	m.fcB = newSharedTable(rng, 1, dim, 0)
	m.bnConvMean = make([]float64, m.channels)
	m.bnConvVar = onesSlice(m.channels)
	m.bnFCMean = make([]float64, dim)
	m.bnFCVar = onesSlice(dim)
	return m
}

func onesSlice(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func (m *ConvE) Name() string      { return "ConvE" }
func (m *ConvE) Dim() int          { return m.dim }
func (m *ConvE) defaultLoss() Loss { return LossLogistic }
func (m *ConvE) reciprocal() bool  { return true }
func (m *ConvE) numRelations() int { return m.nrel }

const bnEps = 1e-5

// fcGroup is the number of chunk queries whose FC accumulators are kept hot
// at once during the batched projection; 16 queries × dim 256 ≈ 32 KB, an
// L1-sized working set.
const fcGroup = 16

// convFeatures computes the post-BN/ReLU flattened conv features of (h, r)
// into feat. img is scratch for the stacked input image; convPre, when
// non-nil, receives the pre-BN conv output for backprop.
func (m *ConvE) convFeatures(h, r int32, img, convPre, feat []float64) {
	ih, iw := 2*m.dh, m.dw
	hv, rv := m.ent.vec(h), m.rel.vec(r)
	copy(img[:m.dim], hv)
	copy(img[m.dim:], rv)

	for c := 0; c < m.channels; c++ {
		k := m.kern.vec(int32(c))
		bias := m.kernB.vec(0)[c]
		inv := 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
		mean := m.bnConvMean[c]
		for y := 0; y < ih; y++ {
			for x := 0; x < iw; x++ {
				s := bias
				for ky := -1; ky <= 1; ky++ {
					yy := y + ky
					if yy < 0 || yy >= ih {
						continue
					}
					for kx := -1; kx <= 1; kx++ {
						xx := x + kx
						if xx < 0 || xx >= iw {
							continue
						}
						s += k[(ky+1)*3+kx+1] * img[yy*iw+xx]
					}
				}
				idx := (c*ih+y)*iw + x
				if convPre != nil {
					convPre[idx] = s
				}
				norm := (s - mean) * inv
				if norm > 0 {
					feat[idx] = norm
				} else {
					feat[idx] = 0
				}
			}
		}
	}
}

// forward computes f(h, r). When caches are non-nil they receive the
// intermediate activations needed for backprop: the stacked image, the
// pre-BN conv output, and the post-BN/ReLU flattened features.
func (m *ConvE) forward(h, r int32, img, convPre, feat []float64) []float64 {
	ih, iw := 2*m.dh, m.dw
	if img == nil {
		img = make([]float64, ih*iw)
	}
	flat := m.channels * ih * iw
	if feat == nil {
		feat = make([]float64, flat)
	}
	m.convFeatures(h, r, img, convPre, feat)

	// FC projection + output batch norm.
	out := make([]float64, m.dim)
	copy(out, m.fcB.vec(0))
	w := m.fc.vec(0)
	for u := 0; u < flat; u++ {
		fu := feat[u]
		if fu == 0 {
			continue
		}
		row := w[u*m.dim : u*m.dim+m.dim]
		for j := 0; j < m.dim; j++ {
			out[j] += fu * row[j]
		}
	}
	for j := 0; j < m.dim; j++ {
		out[j] = (out[j] - m.bnFCMean[j]) / math.Sqrt(m.bnFCVar[j]+bnEps)
	}
	return out
}

// updateStats folds one sample's activations into the running BN statistics.
func (m *ConvE) updateStats(convPre, fcPre []float64) {
	ih, iw := 2*m.dh, m.dw
	area := float64(ih * iw)
	for c := 0; c < m.channels; c++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < ih*iw; i++ {
			v := convPre[c*ih*iw+i]
			mean += v
			sq += v * v
		}
		mean /= area
		variance := sq/area - mean*mean
		if variance < 0 {
			variance = 0
		}
		m.bnConvMean[c] = m.bnM*m.bnConvMean[c] + (1-m.bnM)*mean
		m.bnConvVar[c] = m.bnM*m.bnConvVar[c] + (1-m.bnM)*variance
	}
	for j := 0; j < m.dim; j++ {
		v := fcPre[j]
		m.bnFCMean[j] = m.bnM*m.bnFCMean[j] + (1-m.bnM)*v
		d := v - m.bnFCMean[j]
		m.bnFCVar[j] = m.bnM*m.bnFCVar[j] + (1-m.bnM)*d*d
	}
}

// ScoreTriple returns f(h, r)·t + b_t.
func (m *ConvE) ScoreTriple(h, r, t int32) float64 {
	f := m.forward(h, r, nil, nil, nil)
	return dot(f, m.ent.vec(t)) + m.entBias.vec(t)[0]
}

// ScoreTails computes f(h, r) once and dots it with every candidate.
func (m *ConvE) ScoreTails(h, r int32, cands []int32, out []float64) {
	f := m.forward(h, r, nil, nil, nil)
	for c, cand := range cands {
		out[c] = dot(f, m.ent.vec(cand)) + m.entBias.vec(cand)[0]
	}
}

// ScoreHeads answers head queries through the reciprocal relation.
func (m *ConvE) ScoreHeads(r, t int32, cands []int32, out []float64) {
	m.ScoreTails(t, r+int32(m.nrel), cands, out)
}

// Universal batch-lane contract (see scoring.go). The query vector is
// f(h, r) itself, so candidate scoring is the dot kernel plus the
// per-entity bias. The model's own per-query methods allocate a fresh
// conv/FC stack per call; the batch lane reuses scorer scratch.

func (m *ConvE) entityTable() *table      { return m.ent }
func (m *ConvE) entityStores() *entStores { return &m.stores }
func (m *ConvE) entityBias() *table       { return m.entBias }

// buildTailQueries computes f(h_i, r) for the whole chunk: conv features
// per query, then one u-outer pass over the FC weight matrix shared by all
// queries — the 2·dh·dw·C×dim matrix streams from memory once per chunk
// instead of once per query. Each query still accumulates its FC sum in the
// same ascending-u order as forward, so scores stay bit-identical to the
// per-query path.
func (m *ConvE) buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch) {
	ih, iw := 2*m.dh, m.dw
	flat := m.channels * ih * iw
	nq := len(hs)
	sc.img = growF64(sc.img, ih*iw)
	sc.feat = growF64(sc.feat, nq*flat)
	for i, h := range hs {
		m.convFeatures(h, r, sc.img, nil, sc.feat[i*flat:(i+1)*flat])
	}

	// Transpose the features to u-major so the FC pass reads each unit's
	// chunk activations from one contiguous run instead of striding by flat.
	sc.featT = growF64(sc.featT, flat*nq)
	for i := 0; i < nq; i++ {
		f := sc.feat[i*flat : (i+1)*flat]
		for u, v := range f {
			sc.featT[u*nq+i] = v
		}
	}

	fcb := m.fcB.vec(0)
	for i := 0; i < nq; i++ {
		copy(qs[i*m.dim:(i+1)*m.dim], fcb)
	}
	// The FC pass runs u-outer over sub-groups of fcGroup queries: the
	// group's accumulators (fcGroup × dim floats) stay L1-resident across
	// the whole weight sweep, and the weight matrix streams sequentially
	// once per group. Queries are paired within the group so each row load
	// feeds two accumulations. Neither transform reorders a single query's
	// sum — every q still adds its active units in ascending u — so scores
	// stay bit-identical to forward.
	w := m.fc.vec(0)
	for i0 := 0; i0 < nq; i0 += fcGroup {
		i1 := i0 + fcGroup
		if i1 > nq {
			i1 = nq
		}
		for u := 0; u < flat; u++ {
			row := w[u*m.dim : u*m.dim+m.dim]
			fus := sc.featT[u*nq : u*nq+nq]
			i := i0
			for ; i+1 < i1; i += 2 {
				f0, f1 := fus[i], fus[i+1]
				switch {
				case f0 != 0 && f1 != 0:
					q0 := qs[i*m.dim : (i+1)*m.dim][:len(row)]
					q1 := qs[(i+1)*m.dim : (i+2)*m.dim][:len(row)]
					for j, wj := range row {
						q0[j] += f0 * wj
						q1[j] += f1 * wj
					}
				case f0 != 0:
					q0 := qs[i*m.dim : (i+1)*m.dim][:len(row)]
					for j, wj := range row {
						q0[j] += f0 * wj
					}
				case f1 != 0:
					q1 := qs[(i+1)*m.dim : (i+2)*m.dim][:len(row)]
					for j, wj := range row {
						q1[j] += f1 * wj
					}
				}
			}
			if i < i1 {
				if f0 := fus[i]; f0 != 0 {
					q0 := qs[i*m.dim : (i+1)*m.dim][:len(row)]
					for j, wj := range row {
						q0[j] += f0 * wj
					}
				}
			}
		}
	}
	for i := 0; i < nq; i++ {
		q := qs[i*m.dim : (i+1)*m.dim]
		for j := 0; j < m.dim; j++ {
			q[j] = (q[j] - m.bnFCMean[j]) / math.Sqrt(m.bnFCVar[j]+bnEps)
		}
	}
}

// buildHeadQueries answers head queries through the reciprocal relation,
// exactly like ScoreHeads.
func (m *ConvE) buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch) {
	m.buildTailQueries(ts, r+int32(m.nrel), qs, sc)
}

func (m *ConvE) kernel(qs, block []float64, nc int, out []float64, tile int) {
	scoreDotBatch(qs, block, m.dim, nc, out, tile)
}

func (m *ConvE) gradStep(h, r, t int32, coeff, lr float64) {
	ih, iw := 2*m.dh, m.dw
	flat := m.channels * ih * iw
	img := make([]float64, ih*iw)
	convPre := make([]float64, flat)
	feat := make([]float64, flat)
	f := m.forward(h, r, img, convPre, feat)
	tv := m.ent.vec(t)

	// Reconstruct the pre-BN FC output for the stats update.
	fcPre := make([]float64, m.dim)
	for j := 0; j < m.dim; j++ {
		fcPre[j] = f[j]*math.Sqrt(m.bnFCVar[j]+bnEps) + m.bnFCMean[j]
	}

	// dScore/dt = f ; dScore/db_t = 1.
	gt := make([]float64, m.dim)
	for j := range gt {
		gt[j] = coeff * f[j]
	}
	m.ent.update(t, gt, lr)
	m.entBias.update(t, []float64{coeff}, lr)

	// Backprop through the output BN (stats treated as constants):
	// dScore/dfcPre_j = t_j / √(var+ε).
	gradOut := make([]float64, m.dim)
	for j := 0; j < m.dim; j++ {
		gradOut[j] = coeff * tv[j] / math.Sqrt(m.bnFCVar[j]+bnEps)
	}

	// Backprop through FC.
	gradFeat := make([]float64, flat)
	w := m.fc.vec(0)
	gw := make([]float64, flat*m.dim)
	for u := 0; u < flat; u++ {
		fu := feat[u]
		row := w[u*m.dim : u*m.dim+m.dim]
		gf := 0.0
		for j := 0; j < m.dim; j++ {
			gf += gradOut[j] * row[j]
			if fu != 0 {
				gw[u*m.dim+j] = gradOut[j] * fu
			}
		}
		gradFeat[u] = gf
	}
	m.fc.update(0, gw, lr)
	m.fcB.update(0, gradOut, lr)

	// Backprop through ReLU, conv BN and conv into kernels and the image.
	gradImg := make([]float64, ih*iw)
	gk := make([]float64, 9)
	gkb := make([]float64, m.channels)
	for c := 0; c < m.channels; c++ {
		k := m.kern.vec(int32(c))
		inv := 1 / math.Sqrt(m.bnConvVar[c]+bnEps)
		mean := m.bnConvMean[c]
		for i := range gk {
			gk[i] = 0
		}
		for y := 0; y < ih; y++ {
			for x := 0; x < iw; x++ {
				idx := (c*ih+y)*iw + x
				if (convPre[idx]-mean)*inv <= 0 {
					continue // ReLU inactive
				}
				g := gradFeat[idx] * inv // through BN scaling
				if g == 0 {
					continue
				}
				gkb[c] += g
				for ky := -1; ky <= 1; ky++ {
					yy := y + ky
					if yy < 0 || yy >= ih {
						continue
					}
					for kx := -1; kx <= 1; kx++ {
						xx := x + kx
						if xx < 0 || xx >= iw {
							continue
						}
						gk[(ky+1)*3+kx+1] += g * img[yy*iw+xx]
						gradImg[yy*iw+xx] += g * k[(ky+1)*3+kx+1]
					}
				}
			}
		}
		m.kern.update(int32(c), gk, lr)
	}
	m.kernB.update(0, gkb, lr)

	// Split image gradient back into h and r embeddings.
	m.ent.update(h, gradImg[:m.dim], lr)
	m.rel.update(r, gradImg[m.dim:], lr)

	m.updateStats(convPre, fcPre)
}
