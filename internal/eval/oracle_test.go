package eval

import (
	"math"
	"math/rand"
	"sort"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
)

// oracleResult is what the reference ranker reports: the Metrics and
// workload Evaluate must reproduce exactly, plus every query's rank (tail
// query of split triple i at 2i, head query at 2i+1).
type oracleResult struct {
	Metrics
	CandidatesScored int64
	Ranks            []float64
}

// oracleEvaluate is a deliberately naive reference implementation of the
// filtered ranking protocol, written independently of the executor in
// plan.go: one serial loop over the queries, scores from the model's own
// ScoreTails/ScoreHeads, and known positives looked up one candidate at a
// time. It shares only the protocol with Evaluate — the MaxQueries shuffle
// seeded with Seed, pools drawn in ascending relation order, tail before
// head, from a generator seeded with Seed+1, and the tie and non-finite
// rules — so any executor change that moves a rank shows up as a mismatch.
// Only Filter, Seed and MaxQueries are read from opts.
func oracleEvaluate(m kgc.Model, g *kg.Graph, split []kg.Triple, provider CandidateProvider, opts Options) oracleResult {
	filter := opts.Filter
	if filter == nil {
		filter = kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	}
	queries := split
	if opts.MaxQueries > 0 && opts.MaxQueries < len(split) {
		queries = append([]kg.Triple(nil), split...)
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		queries = queries[:opts.MaxQueries]
	}

	var rels []int32
	seen := map[int32]bool{}
	for _, q := range queries {
		if !seen[q.R] {
			seen[q.R] = true
			rels = append(rels, q.R)
		}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	tailPools := map[int32][]int32{}
	headPools := map[int32][]int32{}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	for _, r := range rels {
		tailPools[r] = provider.Candidates(r, true, rng)
		headPools[r] = provider.Candidates(r, false, rng)
	}

	res := oracleResult{Ranks: make([]float64, 0, 2*len(queries))}
	var one [1]float64
	for _, q := range queries {
		pool := tailPools[q.R]
		scores := make([]float64, len(pool))
		m.ScoreTails(q.H, q.R, pool, scores)
		m.ScoreTails(q.H, q.R, []int32{q.T}, one[:])
		res.Ranks = append(res.Ranks, oracleRank(q.T, one[0], pool, scores,
			func(c int32) bool { return filter.IsKnownTail(q.H, q.R, c) }))
		res.CandidatesScored += int64(len(pool))

		pool = headPools[q.R]
		scores = make([]float64, len(pool))
		m.ScoreHeads(q.R, q.T, pool, scores)
		m.ScoreHeads(q.R, q.T, []int32{q.H}, one[:])
		res.Ranks = append(res.Ranks, oracleRank(q.H, one[0], pool, scores,
			func(c int32) bool { return filter.IsKnownHead(c, q.R, q.T) }))
		res.CandidatesScored += int64(len(pool))
	}

	for _, r := range res.Ranks {
		res.Queries++
		res.MRR += 1 / r
		res.MR += r
		if r <= 1 {
			res.Hits1++
		}
		if r <= 3 {
			res.Hits3++
		}
		if r <= 10 {
			res.Hits10++
		}
	}
	if n := float64(res.Queries); n > 0 {
		res.MRR /= n
		res.MR /= n
		res.Hits1 /= n
		res.Hits3 /= n
		res.Hits10 /= n
	}
	return res
}

// oracleRank is 1 + #{candidates scoring above the truth} + #{ties}/2 over
// the candidates that are neither the truth nor a known positive. A
// non-finite true score loses to every such candidate.
func oracleRank(truth int32, trueScore float64, pool []int32, scores []float64, known func(int32) bool) float64 {
	broken := math.IsNaN(trueScore) || math.IsInf(trueScore, 0)
	better, ties := 0, 0
	for i, c := range pool {
		if c == truth || known(c) {
			continue
		}
		if broken || scores[i] > trueScore {
			better++
		} else if scores[i] == trueScore {
			ties++
		}
	}
	return 1 + float64(better) + float64(ties)/2
}
