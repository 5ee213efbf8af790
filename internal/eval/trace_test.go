package eval

import (
	"context"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
)

// TestEvaluateTraced runs a traced pass and checks the span tree the eval
// pipeline records: plan compile with pool draw under it, one pass span per
// model, and per-relation-chunk children carrying the relation, pool,
// precision and tile attributes.
func TestEvaluateTraced(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 20}

	store := trace.NewStore(4, 1024)
	ctx, root := store.StartTrace(context.Background(), "test-eval")
	results := EvaluateMany([]kgc.Model{formulaModel{}, formulaModel{}}, g, g.Test, prov,
		Options{Filter: filter, Seed: 3, Workers: 2, Ctx: ctx})
	root.End()
	if len(results) != 2 || results[0].Queries == 0 {
		t.Fatalf("evaluation failed under tracing: %+v", results)
	}

	rec, ok := store.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	tr := rec.Snapshot()
	byName := map[string][]trace.SpanRecord{}
	spanByID := map[string]trace.SpanRecord{}
	for _, s := range tr.Spans {
		byName[s.Name] = append(byName[s.Name], s)
		spanByID[s.SpanID] = s
	}

	if n := len(byName["eval.plan_compile"]); n != 1 {
		t.Fatalf("got %d plan_compile spans, want 1", n)
	}
	compile := byName["eval.plan_compile"][0]
	if compile.Parent != byName["test-eval"][0].SpanID {
		t.Fatal("plan_compile is not a child of the root span")
	}
	if n := len(byName["eval.pool_draw"]); n != 1 {
		t.Fatalf("got %d pool_draw spans, want 1", n)
	}
	if byName["eval.pool_draw"][0].Parent != compile.SpanID {
		t.Fatal("pool_draw is not a child of plan_compile")
	}
	if v, ok := compile.Attr("relations").(int); !ok || v <= 0 {
		t.Fatalf("plan_compile relations attr = %v", compile.Attr("relations"))
	}

	passes := byName["eval.pass"]
	if len(passes) != 2 {
		t.Fatalf("got %d pass spans, want 2 (one per model)", len(passes))
	}
	passIDs := map[string]bool{}
	for _, p := range passes {
		if p.Parent != byName["test-eval"][0].SpanID {
			t.Fatal("pass is not a child of the root span")
		}
		if p.Attr("model") != "formula" {
			t.Fatalf("pass model attr = %v", p.Attr("model"))
		}
		if q, ok := p.Attr("queries").(int); !ok || q != results[0].Queries {
			t.Fatalf("pass queries attr = %v, want %d", p.Attr("queries"), results[0].Queries)
		}
		passIDs[p.SpanID] = true
	}

	chunks := byName["eval.chunk"]
	if len(chunks) == 0 {
		t.Fatal("no chunk spans recorded with default TraceChunkSample")
	}
	for _, c := range chunks {
		if !passIDs[c.Parent] {
			t.Fatalf("chunk %s not parented under a pass span", c.SpanID)
		}
		for _, key := range []string{"relation", "queries", "pool_tail", "pool_head", "tile"} {
			if _, ok := c.Attr(key).(int); !ok {
				t.Fatalf("chunk missing int attr %q: %v", key, c.Attrs)
			}
		}
		if c.Attr("precision") != "float64" {
			t.Fatalf("chunk precision attr = %v", c.Attr("precision"))
		}
	}

	// Worker-summed synthetic stage spans, two per pass.
	if n := len(byName["eval.score"]); n != 2 {
		t.Fatalf("got %d score stage spans, want 2", n)
	}
	if byName["eval.score"][0].Attr("timing") != "worker-summed" {
		t.Fatal("score stage span not tagged worker-summed")
	}

	// Sampling: every-2nd-task tracing must record strictly fewer chunks;
	// negative disables them entirely while keeping pass spans.
	ctx2, root2 := store.StartTrace(context.Background(), "sampled")
	Evaluate(formulaModel{}, g, g.Test, prov,
		Options{Filter: filter, Seed: 3, Workers: 2, Ctx: ctx2, TraceChunkSample: 2})
	root2.End()
	rec2, _ := store.Get(root2.TraceID())
	sampled := 0
	for _, s := range rec2.Snapshot().Spans {
		if s.Name == "eval.chunk" {
			sampled++
		}
	}
	if sampled == 0 || sampled*2 > len(chunks)+1 {
		t.Fatalf("TraceChunkSample=2 recorded %d chunks vs %d at full sampling", sampled, len(chunks))
	}

	ctx3, root3 := store.StartTrace(context.Background(), "off")
	Evaluate(formulaModel{}, g, g.Test, prov,
		Options{Filter: filter, Seed: 3, Workers: 2, Ctx: ctx3, TraceChunkSample: -1})
	root3.End()
	rec3, _ := store.Get(root3.TraceID())
	for _, s := range rec3.Snapshot().Spans {
		if s.Name == "eval.chunk" {
			t.Fatal("TraceChunkSample=-1 still recorded chunk spans")
		}
		if s.Name == "eval.pass" {
			goto hasPass
		}
	}
	t.Fatal("pass span missing with chunk tracing disabled")
hasPass:

	// Untraced context: same evaluation, no spans, no panic.
	plain := Evaluate(formulaModel{}, g, g.Test, prov, Options{Filter: filter, Seed: 3, Workers: 2})
	if plain.Queries != results[0].Queries {
		t.Fatalf("untraced pass diverged: %d vs %d queries", plain.Queries, results[0].Queries)
	}
}
