package main

import (
	"bytes"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"kgeval/internal/service"
)

func TestPercentileWithholdsThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	if _, ok := percentile(samples(99), 0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it; want it withheld")
	}
	v, ok := percentile(samples(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(samples(3), 0.5); !ok || v != 2 {
		t.Errorf("median of 1..3 = %v, %v; want 2, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("median of no samples reported")
	}
}

// readInputs returns every generated file and body of one generate call.
func readInputs(t *testing.T, w workload, seed int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	in, err := generate(w, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range []string{"train.tsv", "valid.tsv", "test.tsv", "types.tsv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	for i, b := range in.bodies {
		out["body"+string(rune('0'+i))] = b
	}
	return out
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := readInputs(t, w, 7), readInputs(t, w, 7), readInputs(t, w, 8)
			if len(a) != len(b) {
				t.Fatalf("same seed: %d vs %d inputs", len(a), len(b))
			}
			for name, data := range a {
				if !bytes.Equal(data, b[name]) {
					t.Errorf("same seed: %s differs", name)
				}
				if bytes.Equal(data, c[name]) {
					t.Errorf("different seed: %s is identical", name)
				}
			}
		})
	}
}

func TestCheckRejectsTamperedResult(t *testing.T) {
	w, _ := workloadByName("miss-fit")
	in, err := generate(w, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.computeReferences(); err != nil {
		t.Fatal(err)
	}
	want := in.want[0][0]
	ok := func(rs service.ResultStatus) outcome {
		return outcome{code: http.StatusAccepted, status: service.Status{ID: "j1", State: service.StateSucceeded, Result: &rs}}
	}
	var good tally
	var wrong error
	good.add(ok(want), in, &wrong)
	if good.Succeeded != 1 || wrong != nil {
		t.Fatalf("untampered result: %v, %v", good, wrong)
	}

	tampered := map[string]func(*service.ResultStatus){
		"mrr one ulp": func(r *service.ResultStatus) { r.MRR = math.Nextafter(r.MRR, 2) },
		"hits10":      func(r *service.ResultStatus) { r.Hits10 = math.Nextafter(r.Hits10, -1) },
		"mr":          func(r *service.ResultStatus) { r.MR++ },
		"queries":     func(r *service.ResultStatus) { r.Queries-- },
		"candidates":  func(r *service.ResultStatus) { r.CandidatesScored++ },
	}
	for name, tamper := range tampered {
		rs := want
		tamper(&rs)
		var tl tally
		var wrong error
		tl.add(ok(rs), in, &wrong)
		if tl.Wrong != 1 || tl.Succeeded != 0 || wrong == nil {
			t.Errorf("%s: tally %v, error %v; want one wrong result", name, tl, wrong)
		}
	}

	fleet := service.Status{ID: "j2", State: service.StateSucceeded, Results: []service.ModelResult{
		{Model: "TransE", ResultStatus: want}, {Model: "TransE", ResultStatus: want},
	}}
	if err := checkResults(fleet, in.want[0]); err == nil {
		t.Error("two results accepted for a one-model job")
	}
	if err := checkResults(service.Status{ID: "j3", State: service.StateSucceeded}, in.want[0]); err == nil {
		t.Error("a job without results accepted")
	}
}
