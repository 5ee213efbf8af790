package eval

import "kgeval/internal/obs"

// The eval package's instruments live in obs.Default: evaluation passes run
// inside library calls (CLIs, the service engine, experiments), and one
// process-wide registry lets every entry point share the same trajectory.
// Servers expose them by mounting obs.Handler(..., obs.Default).
//
// All labeled series are resolved to concrete handles once, here, at
// package init. This is an invariant of the observation path, not a style
// choice: Registry lookups take the registry mutex and build a label
// signature per call, so re-resolving "kgeval_eval_stage_seconds"{stage=X}
// on every ObserveSince/Observe would put a lock and an allocation inside
// the per-pass hot path. Observations through a cached *Histogram handle
// are a few atomic adds.
type evalInstruments struct {
	stagePlan  *obs.Histogram
	stagePool  *obs.Histogram
	stageScore *obs.Histogram
	stageRank  *obs.Histogram

	passSeconds     *obs.Histogram
	passesTotal     *obs.Counter
	queriesTotal    *obs.Counter
	candidatesTotal *obs.Counter
}

func newEvalInstruments(reg *obs.Registry) *evalInstruments {
	stageHelp := "Time per evaluation pipeline stage, in seconds. plan_compile and pool_draw are wall-clock per plan; score and rank_merge are worker wall time summed across workers per pass."
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("kgeval_eval_stage_seconds", stageHelp, obs.DurationBuckets, obs.Label{Key: "stage", Value: name})
	}
	return &evalInstruments{
		stagePlan:  stage("plan_compile"),
		stagePool:  stage("pool_draw"),
		stageScore: stage("score"),
		stageRank:  stage("rank_merge"),
		passSeconds: reg.Histogram("kgeval_eval_pass_seconds",
			"Wall-clock time of one model's evaluation pass.", obs.DurationBuckets),
		passesTotal: reg.Counter("kgeval_eval_passes_total",
			"Evaluation passes completed (one per model per Evaluate/EvaluateMany call)."),
		queriesTotal: reg.Counter("kgeval_eval_queries_total",
			"Ranking queries evaluated (two per triple: tail and head)."),
		candidatesTotal: reg.Counter("kgeval_eval_candidates_scored_total",
			"Candidate entity scorings performed — the evaluation's true workload."),
	}
}

var instruments = newEvalInstruments(obs.Default)

// observePlan records the one-time setup stages of a compiled plan. A
// non-empty traceID attaches an OpenMetrics exemplar linking the histogram
// observation back to the trace that produced it.
func observePlan(p *plan, traceID string) {
	instruments.stagePlan.ObserveExemplar(p.compileTime.Seconds(), traceID)
	instruments.stagePool.ObserveExemplar(p.poolTime.Seconds(), traceID)
}

// observePass records one model pass: its scoring/ranking stage split and
// the pass-level throughput counters, with exemplars when traced.
func observePass(res Result, traceID string) {
	instruments.stageScore.ObserveExemplar(res.Stages.Score.Seconds(), traceID)
	instruments.stageRank.ObserveExemplar(res.Stages.RankMerge.Seconds(), traceID)
	instruments.passSeconds.ObserveExemplar(res.Elapsed.Seconds(), traceID)
	instruments.passesTotal.Inc()
	instruments.queriesTotal.Add(int64(res.Queries))
	instruments.candidatesTotal.Add(res.CandidatesScored)
}
