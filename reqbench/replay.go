package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
	"kgeval/internal/service"
)

// layerTimes is one replayed job, timed call by call.
type layerTimes struct {
	decode, load, lookup, fit, pass time.Duration
	plan, pool, score, rank, render time.Duration
	candidates                      int64
	allocBytes                      uint64
}

// replayer re-executes a workload's jobs in-process through the same public
// calls the kgevald worker makes — JSON decode of the body, kgc.New and
// kgc.Load per model, FrameworkCache.Get with a recommender.ByName +
// core.New + Framework.FitCtx build, then Framework.EstimateMany (or
// eval.EvaluateMany for the full protocol) — and times each call itself.
type replayer struct {
	in    *inputs
	fp    string
	cache *service.FrameworkCache
}

func newReplayer(in *inputs) *replayer {
	// The capacity matches kgevald's default -cache, so hits and misses
	// follow the server's.
	return &replayer{in: in, fp: core.Fingerprint(in.graph), cache: service.NewFrameworkCache(8)}
}

// job replays bodies[i] under parent, recording a span per timed call, and
// checks its results against the reference.
func (r *replayer) job(parent *trace.Span, i int) (layerTimes, error) {
	var lt layerTimes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := parent.Child("replay.job", trace.Int("body", i))
	defer span.End()
	ctx := trace.ContextWith(context.Background(), span)
	g := r.in.graph

	t0 := time.Now()
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(r.in.bodies[i]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return lt, fmt.Errorf("decoding body %d: %w", i, err)
	}
	t1 := time.Now()
	lt.decode = t1.Sub(t0)
	span.ChildRecord("service.decode", t0, t1)

	specs := spec.Models
	if len(specs) == 0 {
		specs = []service.ModelSpec{spec.Model}
	}
	models := make([]kgc.Model, len(specs))
	names := make([]string, len(specs))
	for k, ms := range specs {
		m, err := kgc.New(ms.Name, g, ms.Dim, ms.Seed)
		if err != nil {
			return lt, err
		}
		if err := kgc.Load(bytes.NewReader(ms.Snapshot), m); err != nil {
			return lt, fmt.Errorf("loading %s: %w", ms.Name, err)
		}
		models[k], names[k] = m, ms.Name
	}
	t2 := time.Now()
	lt.load = t2.Sub(t1)
	span.ChildRecord("kgc.load", t1, t2, trace.Int("models", len(models)))

	prec, err := store.ParsePrecision(spec.Precision)
	if err != nil {
		return lt, err
	}
	// Chunk spans are off: a pass records hundreds, and the replay keeps
	// every span of the run in memory.
	opts := eval.Options{Filter: r.in.filter, MaxQueries: spec.MaxQueries, Seed: spec.Seed,
		Precision: prec, Ctx: ctx, TraceChunkSample: -1}
	var res []eval.Result
	if spec.Strategy == "full" {
		tp := time.Now()
		res = eval.EvaluateMany(models, g, g.Test, eval.NewFullProvider(g.NumEntities), opts)
		lt.pass = time.Since(tp)
		span.ChildRecord("call.EvaluateMany", tp, tp.Add(lt.pass))
	} else {
		strategy, err := core.ParseStrategy(spec.Strategy)
		if err != nil {
			return lt, err
		}
		ns := numSamplesOf(spec, g)
		key := service.CacheKey{Graph: r.fp, Recommender: spec.Recommender, NumSamples: ns}
		get := span.Child("service.cache_get")
		gctx := trace.ContextWith(ctx, get)
		tg := time.Now()
		fw, hit, err := r.cache.Get(gctx, key, func() (*core.Framework, error) {
			tb := time.Now()
			defer func() {
				lt.fit = time.Since(tb)
				get.ChildRecord("core.fit", tb, tb.Add(lt.fit))
			}()
			rec, err := recommender.ByName(spec.Recommender, serverSeed)
			if err != nil {
				return nil, err
			}
			fw := core.New(rec, ns, serverSeed)
			return fw, fw.FitCtx(gctx, g)
		})
		lt.lookup = time.Since(tg) - lt.fit
		get.End(trace.Bool("hit", hit))
		if err != nil {
			return lt, err
		}
		tp := time.Now()
		res = fw.EstimateMany(models, g, g.Test, strategy, opts)
		lt.pass = time.Since(tp)
		span.ChildRecord("call.EstimateMany", tp, tp.Add(lt.pass))
	}

	st := service.Status{ID: fmt.Sprintf("r%06d", i), State: service.StateSucceeded, Strategy: spec.Strategy}
	for k, rr := range res {
		// The plan is shared across a fleet: its stages are counted once.
		if k == 0 {
			lt.plan, lt.pool = rr.Stages.PlanCompile, rr.Stages.PoolDraw
		}
		lt.score += rr.Stages.Score
		lt.rank += rr.Stages.RankMerge
		lt.candidates += rr.CandidatesScored
		rs := resultStatus(rr)
		rs.ElapsedMS = ms(rr.Elapsed)
		if len(specs) == 1 {
			st.Result = &rs
		} else {
			st.Results = append(st.Results, service.ModelResult{Model: names[k], ResultStatus: rs})
		}
	}
	if err := checkResults(st, r.in.want[i]); err != nil {
		return lt, err
	}

	// Render the terminal status the way the server's JSON responses do.
	tr := time.Now()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return lt, err
	}
	lt.render = time.Since(tr)
	span.ChildRecord("service.render", tr, tr.Add(lt.render))

	runtime.ReadMemStats(&after)
	lt.allocBytes = after.TotalAlloc - before.TotalAlloc
	return lt, nil
}
