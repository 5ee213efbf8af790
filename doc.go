// Package kgeval is a from-scratch Go reproduction of "Are We Wasting Time?
// A Fast, Accurate Performance Evaluation Framework for Knowledge Graph Link
// Predictors" (Cornell et al., ICDE 2025; arXiv:2402.00053).
//
// The repository root package only anchors the module and its benchmark
// harness (bench_test.go). The implementation lives under internal/:
//
//	internal/core         the evaluation framework (the paper's contribution):
//	                      Estimate, and EstimateMany for evaluating a model
//	                      fleet over one shared set of candidate pools
//	internal/recommender  relation recommenders: PT, DBH(-T), OntoSim,
//	                      L-WD(-T), PIE-Sim
//	internal/eval         full + sampled filtered ranking protocols, executed
//	                      as a relation-grouped plan: queries bucketed per
//	                      relation, pools drawn once, whole relations scored
//	                      in batches, checked against a naive reference
//	                      ranker in the package tests; every Result
//	                      carries a StageTimings breakdown of
//	                      plan compile / pool draw / score / rank-merge time
//	internal/obs          dependency-free metrics: counters, gauges, exact
//	                      mergeable histograms, Prometheus text exposition
//	                      (trace-ID exemplars when OpenMetrics is
//	                      negotiated), runtime gauges; obs/trace
//	                      adds context-propagated spans and the bounded
//	                      flight-recorder store behind /v1/jobs/{id}/trace
//	internal/service      evaluation-as-a-service: job engine (single- and
//	                      multi-model jobs), framework cache and the kgevald
//	                      HTTP API, production-hardened with end-to-end job
//	                      deadlines (terminal state "expired"), admission
//	                      control (429 + Retry-After, memory-budget gate
//	                      with precision degradation), graceful drain, and a
//	                      circuit breaker quarantining fit keys that keep
//	                      failing
//	internal/faults       deterministic fault-injection registry for chaos
//	                      tests and the kgevald -faults flag: named pipeline
//	                      sites fire seeded error/panic/stall faults; unarmed
//	                      sites cost one atomic load
//	internal/kgc          TransE/DistMult/ComplEx/RESCAL/RotatE/TuckER/ConvE;
//	                      kgc.NewBatchScorer scores all queries of a
//	                      relation against one gathered candidate block, and
//	                      the true answer through the same query builder and
//	                      kernel; at int8 precision the translational
//	                      and dot-product kernels score raw quantized rows
//	                      (tile-local dequantization, bit-identical scores,
//	                      no materialized float64 block)
//	internal/kp           Knowledge Persistence baseline
//	internal/synth        typed synthetic KG generator (dataset substitute)
//	internal/experiments  regenerates every table and figure of the paper
//	internal/{kg,sparse,sample,stats}  substrates
//
// See README.md for a tour, including the kgevald server walkthrough.
package kgeval
