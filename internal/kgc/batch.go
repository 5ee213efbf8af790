package kgc

import "math"

// BatchScorer is the relation-grouped evaluation lane NewBatchScorer builds
// for a Model: it scores many queries that share one (relation, direction)
// candidate pool in a single call. Implementations gather the pool's
// candidate embeddings into one contiguous block per call and reuse it for
// every query, so the caller should batch all queries of a relation (or a
// large chunk of them) into one invocation.
//
// Batch scoring is an execution strategy, not a different protocol: for any
// model, ScoreTailsBatch must produce bit-identical scores to the equivalent
// sequence of ScoreTails calls (and likewise for heads). The evaluation
// tests rely on this to hold the relation-grouped executor to a naive
// per-query reference ranker.
type BatchScorer interface {
	Model
	// ScoreTailsBatch writes the score of (hs[i], r, cands[j]) into
	// out[i*len(cands)+j]. len(out) must be len(hs)*len(cands).
	ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64)
	// ScoreHeadsBatch writes the score of (cands[j], r, ts[i]) into
	// out[i*len(cands)+j].
	ScoreHeadsBatch(ts []int32, r int32, cands []int32, out []float64)
}

// batchAdapter implements BatchScorer over any Model by looping per query.
type batchAdapter struct{ Model }

func (a batchAdapter) ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64) {
	nc := len(cands)
	for i, h := range hs {
		a.ScoreTails(h, r, cands, out[i*nc:(i+1)*nc])
	}
}

func (a batchAdapter) ScoreHeadsBatch(ts []int32, r int32, cands []int32, out []float64) {
	nc := len(cands)
	for i, t := range ts {
		a.ScoreHeads(r, t, cands, out[i*nc:(i+1)*nc])
	}
}

// defaultTile is the kernel tile used when the caller doesn't autotune: 8
// candidate rows at dim 128 is 8 KB — comfortably L1-resident. TileFor
// picks a better value from the pool/dim shape at plan compile time.
// Tiling only reorders the (query, candidate) iteration; each score remains
// one sequential reduction, so results are bit-identical to the per-query
// path at any tile size.
const defaultTile = 8

// scoreDotBatch computes out[i*nc+j] = dot(qs[i], block[j]) for the models
// whose score is a query-vector/candidate-vector dot product (DistMult,
// ComplEx, RESCAL, TuckER, ConvE). The tile loop keeps a handful of
// candidate rows hot across queries; the per-tile micro-kernel lives in
// scoreDotTile so the int8-native lane (batch_int8.go) can run the same
// arithmetic over tile-local dequantized rows.
func scoreDotBatch(qs, block []float64, dim, nc int, out []float64, tile int) {
	if tile <= 0 {
		tile = defaultTile
	}
	for j0 := 0; j0 < nc; j0 += tile {
		j1 := j0 + tile
		if j1 > nc {
			j1 = nc
		}
		scoreDotTile(qs, block[j0*dim:j1*dim], dim, j0, j1, nc, out)
	}
}

// scoreDotTile scores every query in qs against candidate rows j0..j1 of the
// pool, whose vectors are the rows of tbuf (local row t ↔ candidate j0+t),
// writing out[i*nc+j]. Four candidate rows are scored in flight per step:
// their accumulator chains are independent, hiding the FP add latency that
// serializes a lone running sum. The interleaving only changes which scores
// progress together — each individual score remains the same sequential Σ_k
// reduction as dot(), so results stay bit-identical to the per-query path.
// The [:len(q)] re-slices let the compiler elide bounds checks in the
// accumulation loop.
func scoreDotTile(qs, tbuf []float64, dim, j0, j1, nc int, out []float64) {
	nq := len(qs) / dim
	for i := 0; i < nq; i++ {
		q := qs[i*dim : (i+1)*dim]
		row := out[i*nc : (i+1)*nc]
		j := j0
		for ; j+4 <= j1; j += 4 {
			t := (j - j0) * dim
			c0 := tbuf[t : t+dim][:len(q)]
			c1 := tbuf[t+dim : t+2*dim][:len(q)]
			c2 := tbuf[t+2*dim : t+3*dim][:len(q)]
			c3 := tbuf[t+3*dim : t+4*dim][:len(q)]
			var s0, s1, s2, s3 float64
			for k, qk := range q {
				s0 += qk * c0[k]
				s1 += qk * c1[k]
				s2 += qk * c2[k]
				s3 += qk * c3[k]
			}
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			t := (j - j0) * dim
			row[j] = dot(q, tbuf[t:t+dim])
		}
	}
}

// scoreL1Batch computes out[i*nc+j] = -Σ_k |qs[i][k] - block[j][k]| (TransE),
// with the same tile structure as scoreDotBatch. math.Abs is sign-symmetric,
// so one kernel serves both directions even though the per-query code writes
// q-c for tails and c-q for heads.
func scoreL1Batch(qs, block []float64, dim, nc int, out []float64, tile int) {
	if tile <= 0 {
		tile = defaultTile
	}
	for j0 := 0; j0 < nc; j0 += tile {
		j1 := j0 + tile
		if j1 > nc {
			j1 = nc
		}
		scoreL1Tile(qs, block[j0*dim:j1*dim], dim, j0, j1, nc, out)
	}
}

// scoreL1Tile is scoreDotTile's L1-distance counterpart: candidate rows
// j0..j1 live in tbuf, scores land in out[i*nc+j], four accumulator chains
// in flight.
func scoreL1Tile(qs, tbuf []float64, dim, j0, j1, nc int, out []float64) {
	nq := len(qs) / dim
	for i := 0; i < nq; i++ {
		q := qs[i*dim : (i+1)*dim]
		row := out[i*nc : (i+1)*nc]
		j := j0
		for ; j+4 <= j1; j += 4 {
			t := (j - j0) * dim
			c0 := tbuf[t : t+dim][:len(q)]
			c1 := tbuf[t+dim : t+2*dim][:len(q)]
			c2 := tbuf[t+2*dim : t+3*dim][:len(q)]
			c3 := tbuf[t+3*dim : t+4*dim][:len(q)]
			var s0, s1, s2, s3 float64
			for k, qk := range q {
				s0 += math.Abs(qk - c0[k])
				s1 += math.Abs(qk - c1[k])
				s2 += math.Abs(qk - c2[k])
				s3 += math.Abs(qk - c3[k])
			}
			row[j], row[j+1], row[j+2], row[j+3] = -s0, -s1, -s2, -s3
		}
		for ; j < j1; j++ {
			cv := tbuf[(j-j0)*dim : (j-j0+1)*dim]
			s := 0.0
			for k := 0; k < dim; k++ {
				s += math.Abs(q[k] - cv[k])
			}
			row[j] = -s
		}
	}
}

// scoreRotBatch computes out[i*nc+j] = -Σ_k |qs[i][k] - block[j][k]| over
// complex moduli (RotatE), with vectors in the [re..., im...] layout.
// math.Hypot is sign-symmetric like Abs, so one kernel serves both
// directions.
func scoreRotBatch(qs, block []float64, dim, half, nc int, out []float64, tile int) {
	if tile <= 0 {
		tile = defaultTile
	}
	nq := len(qs) / dim
	for j0 := 0; j0 < nc; j0 += tile {
		j1 := j0 + tile
		if j1 > nc {
			j1 = nc
		}
		for i := 0; i < nq; i++ {
			q := qs[i*dim : (i+1)*dim]
			row := out[i*nc : (i+1)*nc]
			for j := j0; j < j1; j++ {
				cv := block[j*dim : (j+1)*dim]
				s := 0.0
				for k := 0; k < half; k++ {
					s += math.Hypot(q[k]-cv[k], q[half+k]-cv[half+k])
				}
				row[j] = -s
			}
		}
	}
}
