// Package eval implements the ranking evaluation protocols at the heart of
// the paper: the standard *full filtered* protocol that scores every entity
// for every query (O(|E|²) overall), and the *sampled* protocols that rank
// the true answer inside a small per-relation candidate pool instead.
//
// The three sampling strategies compared throughout the paper's experiments
// are provided as CandidateProviders:
//
//	Random        — n_s entities uniformly from E (the ogbl-wikikg2 style
//	                protocol the paper shows to be overly optimistic);
//	Static        — uniform from the thresholded candidate sets of a
//	                relation recommender (§4.1 "Static");
//	Probabilistic — weighted without replacement by recommender scores
//	                (§4.1 "Probabilistic").
//
// All sampled strategies draw one pool per (relation, direction) — 2·|R|
// sampling events per evaluation, the paper's key complexity reduction.
//
// Execution is organized around the same unit the complexity argument is
// about: the relation. An evaluation pass compiles the split into a
// relation-grouped plan (plan.go) — queries bucketed per relation, pools in
// flat slices — and scores each relation's queries in batches against one
// gathered candidate block via kgc.BatchScorer. EvaluateMany reuses a single
// plan across many models, so a model fleet is ranked over identical pools.
package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
)

// Metrics are the standard filtered ranking metrics.
type Metrics struct {
	MRR     float64
	Hits1   float64
	Hits3   float64
	Hits10  float64
	MR      float64 // mean rank
	Queries int
}

// Result is the outcome of one evaluation pass.
type Result struct {
	Metrics
	// Elapsed is the wall-clock evaluation time, including candidate pool
	// construction and scoring, excluding index/recommender fitting.
	Elapsed time.Duration
	// CandidatesScored counts entity scorings performed, the evaluation's
	// true workload.
	CandidatesScored int64
	// Stages breaks Elapsed down by pipeline stage; see StageTimings.
	Stages StageTimings
}

// StageTimings is the per-stage breakdown of one evaluation pass — the
// observability counterpart of the paper's complexity argument, showing
// where a pass actually spends its time.
//
// PlanCompile and PoolDraw are wall-clock (they run once, serially, per
// plan). Score and RankMerge are worker wall time summed across worker
// goroutines: on a parallel pass they can exceed Elapsed, and they include
// time a worker spent descheduled, so they are not CPU time. Groups that
// fall back to direct per-query scoring split their time the same way.
type StageTimings struct {
	// PlanCompile covers grouping the split by relation and chunking the
	// groups into batch tasks.
	PlanCompile time.Duration
	// PoolDraw covers the 2·|R| candidate pool samplings.
	PoolDraw time.Duration
	// Score covers model scoring: gathered-block batch kernels, true-triple
	// scoring, and the direct per-query fallback loop.
	Score time.Duration
	// RankMerge covers rank counting with the known-positive merge sweep.
	RankMerge time.Duration
	// KernelTile is the batch-kernel candidate tile the pass selected at
	// plan compile time (kgc.TileFor over pool size × dim × precision).
	KernelTile int
	// KernelLane names the batch execution lane the pass selected:
	// "int8-native" when Int8 precision ran the raw-quantized-row kernels,
	// "int8-dequant" when Int8 expanded pools to float64 blocks first
	// (models without a native kernel, or Options.Int8Dequant), "dequant"
	// for the float64/float32 gather-expand path.
	KernelLane string
}

// Options configure an evaluation pass.
type Options struct {
	// Filter is the known-positive index for the filtered protocol. When
	// nil, one is built over train+valid+test (and its construction is NOT
	// counted in Elapsed).
	Filter *kg.FilterIndex
	// Workers is the evaluation parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxQueries, when > 0, evaluates only the first MaxQueries triples of
	// the split (after a deterministic shuffle with Seed). Used to bound
	// experiment cost on large splits.
	MaxQueries int
	// Seed drives candidate sampling and the MaxQueries subsample. Evaluate
	// always uses Seed as given; SeedSet only matters to callers that layer
	// defaulting on top (core.Framework).
	Seed int64
	// SeedSet marks Seed as deliberately chosen, so that Framework.Estimate
	// honors an explicit Seed of 0 instead of substituting the framework's
	// default seed.
	SeedSet bool
	// Precision selects the embedding-store precision the executor gathers
	// candidate (and answer) entities at. The zero value, Float64, is the
	// bit-exact reference; Float32 and Int8 trade a bounded metric
	// deviation (< 1e-3 MRR on this repo's equivalence gate) for 2×/4×+
	// smaller entity stores and less gather bandwidth. Ignored by models
	// without a native batch lane, which always score at float64.
	Precision store.Precision
	// Int8Dequant forces the dequantize-first execution path when Precision
	// is Int8, even for models with an int8-native kernel: the pool is
	// expanded to a float64 block before scoring. Metrics are bit-identical
	// either way (the native lane runs the same arithmetic tile-locally);
	// this knob exists as the reference lane for equivalence tests and
	// paired benchmarks. Ignored at other precisions.
	Int8Dequant bool
	// Ctx, when non-nil, allows cancelling an evaluation mid-pass. On
	// cancellation Evaluate returns early with metrics computed over the
	// queries completed so far (Result.Queries reflects the partial count).
	//
	// Ctx also carries the trace span, if any (obs/trace.ContextWith): when
	// present, the pass records a span tree under it — plan compile, pool
	// draw, one pass span per model, and per-relation-chunk child spans with
	// relation/pool/precision/tile attributes. Without a span in Ctx the
	// tracing call sites reduce to nil-pointer checks.
	Ctx context.Context
	// TraceChunkSample throttles per-chunk span recording on traced passes:
	// 0 or 1 records every batch task (the default — a task is tens of
	// queries, so this is cheap), N > 1 records every Nth task, and a
	// negative value disables chunk spans while keeping the pass-level
	// spans. Irrelevant when Ctx carries no trace.
	TraceChunkSample int
	// Progress, when non-nil, is invoked after each evaluated triple with
	// the number of triples completed and the total. It is called
	// concurrently from worker goroutines and must be safe for that.
	Progress func(done, total int)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CandidateProvider supplies the negative candidate pool for ranking queries
// on a relation in one direction. Providers are consulted once per
// (relation, direction) per evaluation pass.
type CandidateProvider interface {
	// Name identifies the strategy ("Random", "Static", "Probabilistic", "Full").
	Name() string
	// Candidates returns the candidate entity pool for queries (·, r, ?)
	// when tail is true, or (?, r, ·) otherwise. The returned slice must be
	// sorted ascending; the evaluation plan retains it for the duration of
	// the pass, so providers must return either a fresh slice or a stable
	// shared one, never a reused scratch buffer.
	Candidates(r int32, tail bool, rng *rand.Rand) []int32
}

// Evaluate runs the filtered ranking protocol for the model over the split,
// drawing candidate pools from the provider. Every triple contributes two
// queries: a tail query (h, r, ?) ranked against the provider's range pool
// and a head query (?, r, t) ranked against its domain pool.
//
// Execution is relation-grouped: the split is partitioned by relation, each
// relation's pools are drawn once (2·|R| sampling events), and all queries
// of a relation are scored in batches against one gathered candidate block
// (kgc.BatchScorer; plain models run through a per-query adapter).
func Evaluate(m kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, opts Options) Result {
	if opts.Filter == nil {
		opts.Filter = kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	}
	queries := subsample(split, opts)
	traceID := trace.FromContext(opts.Ctx).TraceID()
	start := time.Now()
	p := newPlan(queries, provider, opts)
	var done atomic.Int64
	res := runPass(m, p, opts, len(queries), &done)
	res.Elapsed = time.Since(start)
	res.Stages.PlanCompile = p.compileTime
	res.Stages.PoolDraw = p.poolTime
	observePlan(p, traceID)
	observePass(res, traceID)
	return res
}

// EvaluateMany runs the protocol for several models over one shared plan:
// the split is grouped and every candidate pool drawn exactly once, then
// each model executes over the identical pools. What it guarantees is that
// a model fleet — the model-selection-during-training workload — is ranked
// on the same ground. It is not a speed optimisation: sharing the plan
// saves only the pool draws and plan compile, a small share of a pass.
//
// results[i] corresponds to ms[i]; per-model Elapsed covers that model's
// scoring only (the shared plan construction is reported in Stages). The
// Progress hook sees one monotone counter across all models, with total =
// len(ms) × len(queries). Cancellation via Options.Ctx stops mid-model and
// skips the models not yet started, leaving their Results zero.
func EvaluateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, opts Options) []Result {
	if opts.Filter == nil {
		opts.Filter = kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	}
	queries := subsample(split, opts)
	traceID := trace.FromContext(opts.Ctx).TraceID()
	p := newPlan(queries, provider, opts)
	observePlan(p, traceID)
	results := make([]Result, len(ms))
	var done atomic.Int64
	total := len(ms) * len(queries)
	for i, m := range ms {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			break
		}
		start := time.Now()
		results[i] = runPass(m, p, opts, total, &done)
		results[i].Elapsed = time.Since(start)
		// Every model's Stages carry the shared plan's one-time compile/draw
		// cost alongside its own scoring.
		results[i].Stages.PlanCompile = p.compileTime
		results[i].Stages.PoolDraw = p.poolTime
		observePass(results[i], traceID)
	}
	return results
}

// rankScores ranks the true entity against candidate scores, filtering known
// positives: rank = 1 + #{strictly better} + #{ties}/2 (LibKGE's "realistic"
// tie policy). cands and known are both sorted ascending (the
// CandidateProvider contract and the FilterIndex layout), so known-positive
// filtering is a single merge sweep instead of one binary search per
// candidate.
//
// A non-finite true score gets the worst rank — every surviving candidate
// counts as better. Without that rule a NaN truth, against which every
// comparison is false, would rank first and report MRR 1.
func rankScores(truth int32, trueScore float64, cands []int32, scores []float64, known []int32) float64 {
	worst := math.IsNaN(trueScore) || math.IsInf(trueScore, 0)
	better, ties := 0, 0
	ki := 0
	for i, c := range cands {
		if c == truth {
			continue
		}
		for ki < len(known) && known[ki] < c {
			ki++
		}
		if ki < len(known) && known[ki] == c {
			continue
		}
		switch {
		case worst || scores[i] > trueScore:
			better++
		case scores[i] == trueScore:
			ties++
		}
	}
	return 1 + float64(better) + float64(ties)/2
}

// scoreHeadOne scores the true head through the same code path used for the
// candidates, so that reciprocal-relation models (ConvE) stay consistent.
func scoreHeadOne(m kgc.Model, q kg.Triple) float64 {
	var one [1]float64
	m.ScoreHeads(q.R, q.T, []int32{q.H}, one[:])
	return one[0]
}

func metricsFromRanks(ranks []float64) Metrics {
	m := Metrics{}
	for _, r := range ranks {
		if r == 0 { // query skipped by cancellation
			continue
		}
		m.Queries++
		m.MRR += 1 / r
		m.MR += r
		if r <= 1 {
			m.Hits1++
		}
		if r <= 3 {
			m.Hits3++
		}
		if r <= 10 {
			m.Hits10++
		}
	}
	if m.Queries == 0 {
		return m
	}
	n := float64(m.Queries)
	m.MRR /= n
	m.MR /= n
	m.Hits1 /= n
	m.Hits3 /= n
	m.Hits10 /= n
	return m
}

// Hits returns the Hits@k value for k in {1, 3, 10}.
func (m Metrics) Hits(k int) (float64, error) {
	switch k {
	case 1:
		return m.Hits1, nil
	case 3:
		return m.Hits3, nil
	case 10:
		return m.Hits10, nil
	}
	return 0, fmt.Errorf("eval: Hits@%d not tracked", k)
}
