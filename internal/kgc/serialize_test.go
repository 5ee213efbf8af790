package kgc

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kgeval/internal/kgc/store"
)

func TestSaveLoadRoundTripAllModels(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(name, g, 8, 31)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			Train(m, g, cfg)

			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				t.Fatalf("Save: %v", err)
			}

			// Fresh model with a different seed: parameters differ until Load.
			m2, err := New(name, g, 8, 99)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Train[0]
			if m.ScoreTriple(tr.H, tr.R, tr.T) == m2.ScoreTriple(tr.H, tr.R, tr.T) {
				t.Fatal("fresh model coincidentally equal — test would be vacuous")
			}
			if err := Load(bytes.NewReader(buf.Bytes()), m2); err != nil {
				t.Fatalf("Load: %v", err)
			}
			for _, tr := range g.Train[:50] {
				a := m.ScoreTriple(tr.H, tr.R, tr.T)
				b := m2.ScoreTriple(tr.H, tr.R, tr.T)
				if a != b {
					t.Fatalf("score mismatch after load: %v vs %v", a, b)
				}
			}
		})
	}
}

func TestLoadRejectsWrongModel(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	other := NewTransE(g, 8, 1)
	if err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("loading DistMult checkpoint into TransE must fail")
	}
}

func TestLoadRejectsWrongShape(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	bigger := NewDistMult(g, 16, 1)
	if err := Load(bytes.NewReader(buf.Bytes()), bigger); err == nil {
		t.Fatal("loading dim-8 checkpoint into dim-16 model must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	if err := Load(bytes.NewReader([]byte("not a checkpoint at all")), m); err == nil {
		t.Fatal("garbage input must fail")
	}
	if err := Load(bytes.NewReader(nil), m); err == nil {
		t.Fatal("empty input must fail")
	}
}

// A snapshot with non-finite weights must fail to load, naming the table:
// a DistMult whose relation weights are NaN scores every triple NaN, and a
// NaN true score used to rank first under every protocol (MRR 1).
func TestLoadRejectsNonFinite(t *testing.T) {
	g := trainGraph(t)
	cases := []struct {
		table  string
		poison func(m *DistMult)
	}{
		{"relation", func(m *DistMult) { m.rel.w[3] = math.NaN() }},
		{"entity", func(m *DistMult) { m.ent.w[len(m.ent.w)-1] = math.Inf(-1) }},
	}
	for _, c := range cases {
		m := NewDistMult(g, 8, 1)
		c.poison(m)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		err := Load(bytes.NewReader(buf.Bytes()), NewDistMult(g, 8, 2))
		if err == nil || !strings.Contains(err.Error(), `table "`+c.table+`"`) {
			t.Errorf("poisoned %s table: Load error = %v, want one naming the table", c.table, err)
		}
	}
}

// TestEntityStoreSaveOpenAttach round-trips the entity table through the
// columnar store file at every precision: a scorer gathering from the
// mmap'd store must score identically to one gathering from a heap-built
// store of the same precision.
func TestEntityStoreSaveOpenAttach(t *testing.T) {
	g := trainGraph(t)
	dir := t.TempDir()
	for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
		m := NewDistMult(g, 8, 31)
		cands := []int32{0, 5, 9, 77, 149}
		hs := []int32{3, 11}
		want := make([]float64, len(hs)*len(cands))
		NewBatchScorer(m, BatchOptions{Precision: p}).ScoreTailsBatch(hs, 2, cands, want)

		path := filepath.Join(dir, "ent."+p.String())
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveEntityStore(f, m, p); err != nil {
			t.Fatalf("%v: SaveEntityStore: %v", p, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		// Fresh model, same weights restored, store attached from disk.
		m2 := NewDistMult(g, 8, 31)
		st, err := OpenEntityStore(m2, path)
		if err != nil {
			t.Fatalf("%v: OpenEntityStore: %v", p, err)
		}
		got := make([]float64, len(want))
		NewBatchScorer(m2, BatchOptions{Precision: p}).ScoreTailsBatch(hs, 2, cands, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: score[%d] via mmap store = %v, heap store = %v", p, i, got[i], want[i])
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAttachEntityStoreRejectsShapeMismatch(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	st, err := store.FromRows(make([]float64, 10*16), 10, 16, store.Float32)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachEntityStore(m, st); err == nil {
		t.Fatal("attaching a mismatched store must fail")
	}
}

func TestSaveLoadTruncated(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if err := Load(bytes.NewReader(raw[:len(raw)/2]), NewDistMult(g, 8, 2)); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
}
