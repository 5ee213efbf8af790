package kgc

import (
	"sync"

	"kgeval/internal/kgc/store"
)

// BatchOptions selects the execution parameters of a batch scoring lane.
type BatchOptions struct {
	// Precision is the entity-store precision candidate and answer-side
	// embeddings are gathered at. Float64 is the bit-exact reference;
	// Float32 and Int8 trade a bounded score error for memory footprint and
	// gather bandwidth. Ignored for models without a native batch lane,
	// which always score at float64.
	Precision store.Precision
	// Tile is the kernel candidate-tile size; 0 uses the built-in default.
	// TileFor picks a tuned value from the pool/dim shape.
	Tile int
	// Int8Dequant forces the dequantize-first execution path at Int8
	// precision: the pool is expanded to a float64 block before the kernel
	// runs, even for models with an int8-native kernel. Scores are
	// bit-identical either way (the native lane runs the same arithmetic
	// tile-locally); this knob exists as the reference lane for equivalence
	// tests and paired benchmarks. Ignored at other precisions.
	Int8Dequant bool
}

// batchNative is the per-model contract behind the universal batch lane.
// A model implements it by exposing its entity table and two query-builder
// hooks; the gathering, tiling and kernel dispatch live in storeScorer, so
// every model shares one batch execution path instead of reimplementing it.
type batchNative interface {
	Model
	entityTable() *table
	entityStores() *entStores
	// entityBias returns the per-entity additive score bias table (one value
	// per row), or nil.
	entityBias() *table
	// buildTailQueries writes, for each head hs[i], the query vector q such
	// that score(hs[i], r, c) = kernel(q, c) (+ bias[c]) into
	// qs[i*Dim():(i+1)*Dim()]. qs may hold stale data from a previous chunk;
	// implementations must overwrite every element.
	buildTailQueries(hs []int32, r int32, qs []float64, sc *scratch)
	// buildHeadQueries is the head-direction analogue: score(c, r, ts[i]) =
	// kernel(q, c) (+ bias[c]).
	buildHeadQueries(ts []int32, r int32, qs []float64, sc *scratch)
	// kernel scores every query in qs against nc gathered candidate rows,
	// writing out[i*nc+j]. tile is the candidate blocking factor.
	kernel(qs, block []float64, nc int, out []float64, tile int)
}

// int8Kernel is the optional batchNative extension behind the int8-native
// lane: the model scores queries against raw quantized candidate rows (as
// gathered by store.GatherQuantized) without the pool ever being expanded to
// a float64 block. tbuf is caller-owned tile scratch of at least
// effectiveTile(tile)×Dim values. Implementations must stay bit-identical
// to kernel() over the store.Gather expansion of the same rows — the
// evaluation engine treats the two lanes as interchangeable.
//
// The dot-family models whose kernel streams candidate vectors directly
// (TransE, DistMult, ComplEx) implement it; RotatE, RESCAL, TuckER and
// ConvE stay on the dequantize lane.
type int8Kernel interface {
	kernelInt8(qs []float64, vals []int8, scale, zero []float32, nc int, out []float64, tile int, tbuf []float64)
}

// SupportsInt8Native reports whether m has an int8-native kernel, i.e.
// whether NewBatchScorer at Int8 precision (without Int8Dequant) will score
// raw quantized rows instead of dequantizing the pool first.
func SupportsInt8Native(m Model) bool {
	_, ok := m.(int8Kernel)
	return ok
}

// scratch holds one scorer's reusable buffers. Sizes are high-water marks:
// buffers grow to the largest chunk seen and are reused verbatim after.
type scratch struct {
	block []float64 // gathered candidate rows
	qs    []float64 // query vectors, one per chunk query
	q1    []float64 // single-query buffer for per-query entry points
	phase []float64 // RotatE inverse phases

	// int8-native lane: raw quantized candidate rows plus their per-block
	// parameters, and the tile-sized dequantization buffer.
	valsI8 []int8
	cscale []float32
	czero  []float32
	tbuf   []float64
	img    []float64 // ConvE stacked input image
	feat   []float64 // ConvE flattened conv features, one row per query
	featT  []float64 // ConvE conv features transposed to unit-major

	// TuckER's relation matrix M_r = W ×₂ r, cached across the calls of a
	// relation chunk (tails, trues and heads all share it).
	relMat   []float64
	relMatR  int32
	relMatOK bool
}

// growF64 returns buf with length ≥ n, reallocating only to grow.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// numPrec mirrors the store package's precision count.
const numPrec = 3

// entStores lazily builds and caches a model's entity store, one per
// precision. The Float64 store aliases the live weight table (always
// current); Float32/Int8 stores snapshot the weights at first use — fit a
// model before evaluating it at reduced precision, or call ResetStores
// after further training.
type entStores struct {
	mu sync.Mutex
	s  [numPrec]*store.Store
}

func (c *entStores) get(t *table, p store.Precision) *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.s[p]; st != nil {
		return st
	}
	st, err := store.FromRows(t.w, len(t.w)/t.dim, t.dim, p)
	if err != nil {
		// Unreachable: a table's shape is internally consistent.
		panic("kgc: building entity store: " + err.Error())
	}
	c.s[p] = st
	return st
}

func (c *entStores) attach(st *store.Store) {
	c.mu.Lock()
	c.s[st.Precision()] = st
	c.mu.Unlock()
}

func (c *entStores) reset() {
	c.mu.Lock()
	c.s = [numPrec]*store.Store{}
	c.mu.Unlock()
}

// ResetStores drops m's cached entity stores so they are rebuilt from the
// current weights on next use. Call it after training a model further once
// it has been evaluated at reduced precision (the float64 store aliases the
// live weights and never goes stale).
func ResetStores(m Model) {
	if bn, ok := m.(batchNative); ok {
		bn.entityStores().reset()
	}
}

// NewBatchScorer returns a batch lane for m with explicit precision and
// tile. Models implementing the native contract get a store-backed scorer;
// anything else is wrapped in the per-query adapter (which ignores opts — it
// always scores at float64 through the model's own methods).
//
// The returned scorer owns reusable scratch buffers and is NOT safe for
// concurrent use: create one per worker goroutine. Scorers for the same
// model share the underlying (immutable) entity store, so per-worker
// creation is cheap after the first.
func NewBatchScorer(m Model, opts BatchOptions) BatchScorer {
	if bn, ok := m.(batchNative); ok {
		s := &storeScorer{
			m:    bn,
			st:   bn.entityStores().get(bn.entityTable(), opts.Precision),
			bias: bn.entityBias(),
			tile: opts.Tile,
		}
		if opts.Precision == store.Int8 && !opts.Int8Dequant {
			s.i8k, _ = m.(int8Kernel)
		}
		return s
	}
	return batchAdapter{m}
}

// storeScorer is the universal batch lane: it gathers each chunk's
// candidate pool from the model's entity store at the selected precision
// into a scratch block, asks the model to build its query vectors, and
// streams the block through the model's tiled kernel. Its per-query entry
// points (ScoreTriple, ScoreTails, ScoreHeads) take the same route with a
// single query, so a true answer and its candidates are always scored by
// one arithmetic. One instance owns the scratch, so it is not safe for
// concurrent use.
type storeScorer struct {
	m    batchNative
	st   *store.Store
	bias *table
	tile int
	i8k  int8Kernel // non-nil: score raw quantized rows (int8-native lane)
	sc   scratch

	oneID [1]int32 // single-query/candidate id buffers for the per-query entry points
	oneC  [1]int32
	oneS  [1]float64
}

func (s *storeScorer) Name() string { return s.m.Name() }
func (s *storeScorer) Dim() int     { return s.m.Dim() }

// ScoreTailsBatch scores (hs[i], r, cands[j]) into out[i*len(cands)+j].
func (s *storeScorer) ScoreTailsBatch(hs []int32, r int32, cands []int32, out []float64) {
	dim := s.m.Dim()
	s.sc.qs = growF64(s.sc.qs, len(hs)*dim)
	s.m.buildTailQueries(hs, r, s.sc.qs, &s.sc)
	s.scoreBlock(s.sc.qs, cands, out)
}

// ScoreHeadsBatch scores (cands[j], r, ts[i]) into out[i*len(cands)+j].
func (s *storeScorer) ScoreHeadsBatch(ts []int32, r int32, cands []int32, out []float64) {
	dim := s.m.Dim()
	s.sc.qs = growF64(s.sc.qs, len(ts)*dim)
	s.m.buildHeadQueries(ts, r, s.sc.qs, &s.sc)
	s.scoreBlock(s.sc.qs, cands, out)
}

// scoreBlock gathers cands once and runs the kernel for every query in qs,
// then adds the per-entity bias when the model has one. On the int8-native
// lane the gather stays quantized — 1 byte per value plus block parameters —
// and the kernel dequantizes tile-locally.
func (s *storeScorer) scoreBlock(qs []float64, cands []int32, out []float64) {
	dim := s.m.Dim()
	nc := len(cands)
	if s.i8k != nil {
		s.gatherQuantized(cands)
		s.i8k.kernelInt8(qs, s.sc.valsI8, s.sc.cscale, s.sc.czero, nc, out, s.tile, s.sc.tbuf)
	} else {
		s.sc.block = growF64(s.sc.block, nc*dim)
		s.st.Gather(cands, s.sc.block)
		s.m.kernel(qs, s.sc.block, nc, out, s.tile)
	}
	if s.bias != nil {
		nq := len(qs) / dim
		for i := 0; i < nq; i++ {
			row := out[i*nc : (i+1)*nc]
			for j, c := range cands {
				row[j] += s.bias.vec(c)[0]
			}
		}
	}
}

// ScoreTriple scores one triple, consistent with the batch lane.
func (s *storeScorer) ScoreTriple(h, r, t int32) float64 {
	s.oneC[0] = t
	s.ScoreTails(h, r, s.oneC[:], s.oneS[:])
	return s.oneS[0]
}

// ScoreTails scores (h, r, cand) for every candidate tail.
func (s *storeScorer) ScoreTails(h, r int32, cands []int32, out []float64) {
	dim := s.m.Dim()
	s.sc.q1 = growF64(s.sc.q1, dim)
	s.oneID[0] = h
	s.m.buildTailQueries(s.oneID[:], r, s.sc.q1, &s.sc)
	s.scoreSingles(s.sc.q1, cands, out)
}

// ScoreHeads scores (cand, r, t) for every candidate head.
func (s *storeScorer) ScoreHeads(r, t int32, cands []int32, out []float64) {
	dim := s.m.Dim()
	s.sc.q1 = growF64(s.sc.q1, dim)
	s.oneID[0] = t
	s.m.buildHeadQueries(s.oneID[:], r, s.sc.q1, &s.sc)
	s.scoreSingles(s.sc.q1, cands, out)
}

// gatherQuantized sizes the int8-lane scratch for len(cands) rows and fills
// it from the store.
func (s *storeScorer) gatherQuantized(cands []int32) {
	dim, nb := s.m.Dim(), s.st.NBlocks()
	nc := len(cands)
	s.sc.valsI8 = growI8(s.sc.valsI8, nc*dim)
	s.sc.cscale = growF32(s.sc.cscale, nc*nb)
	s.sc.czero = growF32(s.sc.czero, nc*nb)
	s.sc.tbuf = growF64(s.sc.tbuf, effectiveTile(s.tile)*dim)
	s.st.GatherQuantized(cands, s.sc.valsI8, s.sc.cscale, s.sc.czero)
}

// scoreSingles scores one query against cands, streaming the pool through a
// bounded gather block so direct (per-query) relation groups don't inflate
// the scratch to the full entity table.
func (s *storeScorer) scoreSingles(q []float64, cands []int32, out []float64) {
	const blockRows = 256
	dim := s.m.Dim()
	n := len(cands)
	rows := blockRows
	if n < rows {
		rows = n
	}
	if s.i8k == nil {
		s.sc.block = growF64(s.sc.block, rows*dim)
	}
	for lo := 0; lo < n; lo += blockRows {
		hi := lo + blockRows
		if hi > n {
			hi = n
		}
		part := cands[lo:hi]
		if s.i8k != nil {
			s.gatherQuantized(part)
			s.i8k.kernelInt8(q, s.sc.valsI8, s.sc.cscale, s.sc.czero, len(part), out[lo:hi], s.tile, s.sc.tbuf)
		} else {
			s.st.Gather(part, s.sc.block)
			s.m.kernel(q, s.sc.block[:len(part)*dim], len(part), out[lo:hi], s.tile)
		}
		if s.bias != nil {
			for j, c := range part {
				out[lo+j] += s.bias.vec(c)[0]
			}
		}
	}
}
