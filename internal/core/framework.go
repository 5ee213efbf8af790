// Package core is the public facade of kgeval: the paper's fast, accurate
// evaluation framework for knowledge-graph link predictors.
//
// Usage mirrors Figure 1 (B) of the paper:
//
//	fw := core.New(recommender.NewLWD(), 200, 42)   // relation recommender + n_s
//	if err := fw.Fit(g); err != nil { ... }          // one-time preprocessing
//	est := fw.Estimate(model, g, g.Valid, core.StrategyProbabilistic, opts)
//	// est.MRR ≈ full filtered MRR, at a fraction of the cost.
//
// The framework is model-agnostic: anything implementing kgc.Model can be
// estimated. Fitting the recommender and discretizing candidate sets happen
// once per graph; each Estimate call then performs only 2·|R| candidate
// samplings plus the ranking work on the small pools.
package core

import (
	"context"
	"fmt"
	"sync"

	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// Strategy selects the candidate sampling strategy (§4.1).
type Strategy int

const (
	// StrategyRandom samples candidates uniformly from all entities — the
	// baseline the paper shows to be overly optimistic.
	StrategyRandom Strategy = iota
	// StrategyStatic samples uniformly inside thresholded recommender
	// candidate sets.
	StrategyStatic
	// StrategyProbabilistic samples weighted by recommender scores without
	// replacement.
	StrategyProbabilistic
)

// String returns the paper's abbreviation: R, S or P.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "R"
	case StrategyStatic:
		return "S"
	case StrategyProbabilistic:
		return "P"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all strategies in the paper's column order (R, P, S).
func Strategies() []Strategy {
	return []Strategy{StrategyRandom, StrategyProbabilistic, StrategyStatic}
}

// ParseStrategy maps a paper abbreviation ("R", "P", "S") or full name
// ("random", "probabilistic", "static") to its Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "R", "random":
		return StrategyRandom, nil
	case "P", "probabilistic":
		return StrategyProbabilistic, nil
	case "S", "static":
		return StrategyStatic, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want R, P or S)", s)
}

// Framework bundles a relation recommender with a sample budget n_s and
// exposes the paper's estimation pipeline.
//
// A fitted Framework may be shared: Fit is idempotent per graph and safe for
// concurrent callers, and Estimate only reads fitted state, so one Framework
// can serve many evaluations in parallel (the service layer relies on this
// to amortize Fit cost across requests).
type Framework struct {
	Rec        recommender.Recommender
	NumSamples int // n_s: candidates per (relation, direction)
	Seed       int64

	mu    sync.Mutex
	graph *kg.Graph
	sets  *recommender.CandidateSets
}

// New builds an unfitted Framework.
func New(rec recommender.Recommender, numSamples int, seed int64) *Framework {
	return &Framework{Rec: rec, NumSamples: numSamples, Seed: seed}
}

// Fit runs the one-time preprocessing on a graph: fitting the relation
// recommender on the training split and discretizing its score matrix into
// static candidate sets. Fitting the same graph again is a no-op, and
// concurrent callers are serialized, so racing requests for the same
// Framework perform the preprocessing exactly once.
func (f *Framework) Fit(g *kg.Graph) error {
	return f.FitCtx(context.Background(), g)
}

// FitCtx is Fit with trace context: when ctx carries a span, the one-time
// preprocessing records a "framework.fit" child span (recommender name,
// whether this call actually fitted or found the graph already fitted), so
// job traces show when they paid the Fit cost versus rode the cache.
func (f *Framework) FitCtx(ctx context.Context, g *kg.Graph) error {
	span := trace.FromContext(ctx).Child("framework.fit")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.graph == g {
		span.End(trace.String("recommender", f.Rec.Name()), trace.Bool("already_fitted", true))
		return nil
	}
	if err := f.Rec.Fit(g); err != nil {
		span.End(trace.String("error", err.Error()))
		return fmt.Errorf("core: fitting %s: %w", f.Rec.Name(), err)
	}
	f.graph = g
	f.sets = recommender.BuildStatic(f.Rec.Scores(), g, recommender.DefaultStaticOpts())
	span.End(trace.String("recommender", f.Rec.Name()), trace.Bool("already_fitted", false))
	return nil
}

// Sets returns the discretized candidate sets (available after Fit).
func (f *Framework) Sets() *recommender.CandidateSets {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sets
}

// Provider returns the candidate provider implementing the strategy.
// Fit must have been called.
func (f *Framework) Provider(s Strategy) eval.CandidateProvider {
	f.mu.Lock()
	graph, sets := f.graph, f.sets
	f.mu.Unlock()
	if graph == nil {
		panic("core: Framework used before Fit")
	}
	switch s {
	case StrategyRandom:
		return &eval.RandomProvider{NumEntities: graph.NumEntities, N: f.NumSamples}
	case StrategyStatic:
		return &eval.StaticProvider{Sets: sets, N: f.NumSamples}
	case StrategyProbabilistic:
		return &eval.ProbabilisticProvider{Scores: f.Rec.Scores(), N: f.NumSamples}
	}
	panic(fmt.Sprintf("core: unknown strategy %d", int(s)))
}

// seeded substitutes the framework's default seed when the caller left the
// seed unset. A zero Seed only means "unset" when SeedSet is false: callers
// that genuinely want seed 0 mark opts.SeedSet.
func (f *Framework) seeded(opts eval.Options) eval.Options {
	if opts.Seed == 0 && !opts.SeedSet {
		opts.Seed = f.Seed
	}
	return opts
}

// Estimate runs a sampled filtered evaluation of the model over the split
// with the given strategy, returning estimated ranking metrics. An unset
// seed (Seed == 0 with SeedSet false) falls back to the framework's seed.
func (f *Framework) Estimate(m kgc.Model, g *kg.Graph, split []kg.Triple, s Strategy, opts eval.Options) eval.Result {
	return eval.Evaluate(m, g, split, f.Provider(s), f.seeded(opts))
}

// EstimateMany evaluates several models over one shared set of candidate
// pools and one filter-index pass: the split is grouped by relation and each
// pool drawn exactly once, then every model is scored over identical pools
// (eval.EvaluateMany). The service's multi-model jobs and the
// model-selection-during-training workload rely on it for the guarantee
// that every model is ranked on identical candidates; results[i]
// corresponds to ms[i] and equals what Estimate would return for that
// model with the same options.
func (f *Framework) EstimateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, s Strategy, opts eval.Options) []eval.Result {
	return eval.EvaluateMany(ms, g, split, f.Provider(s), f.seeded(opts))
}

// FullEvaluate runs the standard full filtered ranking protocol — the
// expensive ground truth the framework's estimates are compared against.
func FullEvaluate(m kgc.Model, g *kg.Graph, split []kg.Triple, opts eval.Options) eval.Result {
	return eval.Evaluate(m, g, split, eval.NewFullProvider(g.NumEntities), opts)
}

// FullEvaluateMany runs the full protocol for several models over one shared
// plan, the exhaustive counterpart of EstimateMany.
func FullEvaluateMany(ms []kgc.Model, g *kg.Graph, split []kg.Triple, opts eval.Options) []eval.Result {
	return eval.EvaluateMany(ms, g, split, eval.NewFullProvider(g.NumEntities), opts)
}
