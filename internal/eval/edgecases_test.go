package eval

import (
	"math"
	"math/rand"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/recommender"
)

func TestEvaluateEmptySplit(t *testing.T) {
	g := evalGraph(t)
	res := Evaluate(formulaModel{}, g, nil, NewFullProvider(g.NumEntities), Options{Seed: 1})
	if res.Queries != 0 || res.MRR != 0 {
		t.Fatalf("empty split: %+v", res.Metrics)
	}
}

func TestEvaluateSingleTriple(t *testing.T) {
	g := evalGraph(t)
	res := Evaluate(formulaModel{}, g, g.Test[:1], NewFullProvider(g.NumEntities), Options{Seed: 1})
	if res.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", res.Queries)
	}
	if res.MRR <= 0 || res.MRR > 1 {
		t.Fatalf("MRR = %v out of (0,1]", res.MRR)
	}
}

// A relation whose static candidate set is empty must not crash: the rank is
// computed against an empty pool, giving rank 1 for that query.
func TestEvaluateEmptyCandidatePool(t *testing.T) {
	g := &kg.Graph{
		Name: "empty-pool", NumEntities: 4, NumRelations: 2,
		Train: []kg.Triple{{H: 0, R: 0, T: 1}},
		Test:  []kg.Triple{{H: 0, R: 1, T: 2}}, // relation 1 unseen in train
	}
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	sets := recommender.BuildStatic(lwd.Scores(), g, recommender.StaticOpts{IncludeSeen: true})
	res := Evaluate(formulaModel{}, g, g.Test, &StaticProvider{Sets: sets, N: 5}, Options{Seed: 1})
	if res.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", res.Queries)
	}
	if res.MRR != 1 {
		t.Fatalf("rank against empty pool must be 1, MRR = %v", res.MRR)
	}
}

// Provider pools that contain only filtered-out entities must also lead to
// rank 1 (all candidates are known positives and get skipped).
func TestEvaluateAllCandidatesFiltered(t *testing.T) {
	g := &kg.Graph{
		Name: "all-filtered", NumEntities: 3, NumRelations: 1,
		Train: []kg.Triple{{H: 0, R: 0, T: 1}, {H: 1, R: 0, T: 2}, {H: 2, R: 0, T: 2}},
		Test:  []kg.Triple{{H: 0, R: 0, T: 2}},
	}
	// Tail query (0,0,?): candidates {1,2} — 1 is a known tail of (0,0),
	// 2 is the query answer; both excluded → rank 1. Head query (?,0,2):
	// candidates {1,2} are both known heads of (·,0,2) → rank 1.
	res := Evaluate(formulaModel{}, g, g.Test, fixedProvider{pool: []int32{1, 2}}, Options{Seed: 1})
	if res.MRR != 1 {
		t.Fatalf("MRR = %v, want 1", res.MRR)
	}
}

type fixedProvider struct{ pool []int32 }

func (fixedProvider) Name() string { return "fixed" }
func (f fixedProvider) Candidates(r int32, tail bool, rng *rand.Rand) []int32 {
	return f.pool
}

// Options.Workers larger than the query count must not lose queries.
func TestEvaluateMoreWorkersThanQueries(t *testing.T) {
	g := evalGraph(t)
	res := Evaluate(formulaModel{}, g, g.Test[:3], NewFullProvider(g.NumEntities), Options{Seed: 1, Workers: 16})
	if res.Queries != 6 {
		t.Fatalf("Queries = %d, want 6", res.Queries)
	}
}

// nanModel scores every triple NaN, as a model with NaN weights does.
type nanModel struct{}

func (nanModel) Name() string                      { return "nan" }
func (nanModel) Dim() int                          { return 1 }
func (nanModel) ScoreTriple(h, r, t int32) float64 { return math.NaN() }
func (nanModel) ScoreTails(h, r int32, cands []int32, out []float64) {
	for i := range out {
		out[i] = math.NaN()
	}
}
func (m nanModel) ScoreHeads(r, t int32, cands []int32, out []float64) {
	m.ScoreTails(0, r, cands, out)
}

// A non-finite true score must rank last, not first: every comparison
// against a NaN truth is false, so without the worst-rank rule a NaN model
// evaluated to MRR 1 under both the Full and the Probabilistic protocol.
func TestNonFiniteTrueScoreRanksWorst(t *testing.T) {
	for _, ts := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Candidate 0 is the truth and 2 a known positive, so 1 and 3 survive.
		got := rankScores(0, ts, []int32{0, 1, 2, 3}, []float64{ts, -1, 7, math.NaN()}, []int32{2})
		if got != 3 {
			t.Errorf("true score %v: rank %v, want 3 (worst of two survivors)", ts, got)
		}
	}

	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	lwd := recommender.NewLWD()
	if err := lwd.Fit(g); err != nil {
		t.Fatal(err)
	}
	for _, p := range []CandidateProvider{
		NewFullProvider(g.NumEntities),
		&ProbabilisticProvider{Scores: lwd.Scores(), N: 30},
	} {
		opts := Options{Filter: filter, Seed: 1}
		res := Evaluate(nanModel{}, g, g.Test, p, opts)
		if res.MRR > 0.5 || res.Hits1 > 0.1 {
			t.Errorf("%s: NaN model scored MRR %v, Hits@1 %v", p.Name(), res.MRR, res.Hits1)
		}
		checkAgainstOracle(t, p.Name(), res, oracleEvaluate(nanModel{}, g, g.Test, p, opts))
	}
}
