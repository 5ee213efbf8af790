package kgc

import (
	"math/rand"
	"testing"
)

// Batch scoring is only an execution strategy: for every model, the batch
// methods and the scorer's own per-query entry points must reproduce the
// model's ScoreTails/ScoreHeads outputs bit for bit, since the evaluation
// ranks compare raw float scores for equality.
func TestBatchScoringBitIdentical(t *testing.T) {
	g := trainGraph(t)
	rng := rand.New(rand.NewSource(77))
	for _, name := range ModelNames() {
		m, err := New(name, g, 20, 9)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})

		const nq, nc = 13, 37
		qsEnt := make([]int32, nq)
		for i := range qsEnt {
			qsEnt[i] = int32(rng.Intn(g.NumEntities))
		}
		cands := make([]int32, nc)
		for i := range cands {
			cands[i] = int32(rng.Intn(g.NumEntities))
		}
		r := int32(rng.Intn(g.NumRelations))

		batch := make([]float64, nq*nc)
		single := make([]float64, nc)
		routed := make([]float64, nc)

		bs.ScoreTailsBatch(qsEnt, r, cands, batch)
		for i, h := range qsEnt {
			m.ScoreTails(h, r, cands, single)
			bs.ScoreTails(h, r, cands, routed)
			for j, c := range cands {
				if batch[i*nc+j] != single[j] {
					t.Fatalf("%s: ScoreTailsBatch[%d,%d] = %v, per-query = %v", name, i, j, batch[i*nc+j], single[j])
				}
				if routed[j] != single[j] {
					t.Fatalf("%s: scorer ScoreTails[%d,%d] = %v, model = %v", name, i, j, routed[j], single[j])
				}
				if got := bs.ScoreTriple(h, r, c); got != single[j] {
					t.Fatalf("%s: scorer ScoreTriple(%d,%d,%d) = %v, model = %v", name, h, r, c, got, single[j])
				}
			}
		}

		bs.ScoreHeadsBatch(qsEnt, r, cands, batch)
		for i, tl := range qsEnt {
			m.ScoreHeads(r, tl, cands, single)
			bs.ScoreHeads(r, tl, cands, routed)
			for j := range single {
				if batch[i*nc+j] != single[j] {
					t.Fatalf("%s: ScoreHeadsBatch[%d,%d] = %v, per-query = %v", name, i, j, batch[i*nc+j], single[j])
				}
				if routed[j] != single[j] {
					t.Fatalf("%s: scorer ScoreHeads[%d,%d] = %v, model = %v", name, i, j, routed[j], single[j])
				}
			}
		}
	}
}

// All seven built-in models score through the universal store-backed batch
// lane; only externally supplied plain Models fall back to the per-query
// adapter.
func TestNewBatchScorerDispatch(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		m, err := New(name, g, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})
		if _, ok := bs.(*storeScorer); !ok {
			t.Errorf("%s: NewBatchScorer = %T, want *storeScorer", name, bs)
		}
	}
	// A plain Model (no native contract) gets the per-query adapter.
	m, _ := New("TransE", g, 8, 1)
	bs := NewBatchScorer(plainModel{m}, BatchOptions{})
	if _, ok := bs.(batchAdapter); !ok {
		t.Errorf("plain Model: NewBatchScorer = %T, want batchAdapter", bs)
	}
}

// plainModel hides a model's native batch contract, leaving only the Model
// interface visible.
type plainModel struct{ m Model }

func (p plainModel) Name() string                                  { return p.m.Name() }
func (p plainModel) Dim() int                                      { return p.m.Dim() }
func (p plainModel) ScoreTriple(h, r, t int32) float64             { return p.m.ScoreTriple(h, r, t) }
func (p plainModel) ScoreTails(h, r int32, c []int32, o []float64) { p.m.ScoreTails(h, r, c, o) }
func (p plainModel) ScoreHeads(r, t int32, c []int32, o []float64) { p.m.ScoreHeads(r, t, c, o) }

// Zero-length query and candidate slices must be safe no-ops.
func TestBatchScoringEmpty(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		m, err := New(name, g, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBatchScorer(m, BatchOptions{})
		bs.ScoreTailsBatch(nil, 0, []int32{1, 2}, nil)
		bs.ScoreTailsBatch([]int32{1, 2}, 0, nil, nil)
		bs.ScoreHeadsBatch(nil, 0, []int32{1, 2}, nil)
		bs.ScoreHeadsBatch([]int32{1, 2}, 0, nil, nil)
	}
}
