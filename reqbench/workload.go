package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/recommender"
	"kgeval/internal/service"
	"kgeval/internal/synth"
)

// serverSeed is the kgevald -seed the benchmark pins: it seeds recommender
// fitting, so the in-process references fit the same framework.
const serverSeed = 1

// modelShape is one snapshot a workload's jobs carry.
type modelShape struct {
	name string
	dim  int
}

// workload is one traffic mix: a graph shape, the snapshots every job
// carries, the job parameters that rotate between jobs, and the number of
// closed-loop clients.
type workload struct {
	name string
	why  string
	// graph is the synthetic preset whose shape the generated graph takes;
	// its seed is replaced by one derived from the run's seed.
	graph     func() synth.Config
	models    []modelShape
	strategy  string // "P", "S", "R" or "full"
	precision string // "" = float64
	// maxQueries bounds each job's evaluated triples (0 = whole test split).
	maxQueries int
	// numSamples rotates n_s across jobs; nil sends 0, the server default.
	numSamples []int
	// jobSeeds is how many distinct sampling seeds the jobs rotate through
	// (ignored when numSamples rotates: each n_s gets one seed).
	jobSeeds int
	clients  int
	// warmJobs is how many jobs run before timing, per set-up: enough to
	// fill the framework cache and to let the fresh process grow its heap,
	// and, since setup_s includes them, enough rounds that one slow cold
	// job does not decide the set-up time.
	warmJobs int
}

var workloads = []workload{
	{
		name:     "hit-sampled",
		why:      "cache-hit P job on a codexm-sim graph with a DistMult dim-256 snapshot; decode and load weigh, fit does no work",
		graph:    synth.CoDExMSim,
		models:   []modelShape{{"DistMult", 256}},
		strategy: "P",
		jobSeeds: 8,
		clients:  1,
		warmJobs: 9,
	},
	{
		name:     "miss-fit",
		why:      "S job on a codexl-sim graph whose n_s cycles past the framework cache, so every job fits and evicts",
		graph:    synth.CoDExLSim,
		models:   []modelShape{{"TransE", 32}},
		strategy: "S",
		// Ten keys cycled through an LRU of 8 never hit.
		numSamples: []int{250, 260, 270, 280, 290, 300, 310, 320, 330, 340},
		clients:    1,
		warmJobs:   10,
	},
	{
		name:       "full-fleet",
		why:        "full-protocol int8 job for a four-model fleet from two clients; the score kernel and queueing dominate",
		graph:      synth.CoDExMSim,
		models:     []modelShape{{"TransE", 64}, {"DistMult", 64}, {"ComplEx", 64}, {"RotatE", 64}},
		strategy:   "full",
		precision:  "int8",
		maxQueries: 250,
		jobSeeds:   4,
		clients:    2,
		warmJobs:   8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything generated from (workload, seed): the graph as the
// server will load it from the TSV directory, the snapshot models, one
// request body per rotating job, and the reference results of each body.
type inputs struct {
	dataDir string
	graph   *kg.Graph
	filter  *kg.FilterIndex
	models  []kgc.Model
	specs   []service.JobSpec
	bodies  [][]byte
	// want[i] holds the expected per-model results of bodies[i].
	want [][]service.ResultStatus
	// next is the body the next closed-loop job sends.
	next int
}

// mix derives independent seeds from the run seed (splitmix64 finalizer).
func mix(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1 // positive and never 0
}

// generate writes the workload's graph into dir as kgevald -data TSV files
// and builds the snapshots and request bodies. The same seed yields
// byte-identical files and bodies.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	cfg := w.graph()
	cfg.Seed = mix(seed, 1)
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := ds.Graph
	// kgevald -data counts entities up to the largest id in a triple and
	// rejects a types.tsv naming any entity beyond it, so types of trailing
	// entities that occur in no triple are left out.
	used := 0
	for _, ts := range [][]kg.Triple{g.Train, g.Valid, g.Test} {
		for _, t := range ts {
			used = max(used, int(t.H)+1, int(t.T)+1)
		}
	}
	types := g.EntityTypes[:min(used, len(g.EntityTypes))]
	files := []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"train.tsv", func(b *bytes.Buffer) error { return kg.WriteTriplesTSV(b, g.Train) }},
		{"valid.tsv", func(b *bytes.Buffer) error { return kg.WriteTriplesTSV(b, g.Valid) }},
		{"test.tsv", func(b *bytes.Buffer) error { return kg.WriteTriplesTSV(b, g.Test) }},
		{"types.tsv", func(b *bytes.Buffer) error { return kg.WriteTypesTSV(b, types) }},
	}
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", f.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	// Read the files back the way kgevald -data does, so snapshots and
	// references are built against exactly the graph the server hosts.
	hosted, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		dataDir: dir,
		graph:   hosted,
		filter:  kg.NewFilterIndex(hosted.Train, hosted.Valid, hosted.Test),
	}

	specs := make([]service.ModelSpec, len(w.models))
	for i, ms := range w.models {
		modelSeed := mix(seed, 100+uint64(i))
		m, err := trainedModel(ms, hosted, modelSeed)
		if err != nil {
			return nil, err
		}
		var snap bytes.Buffer
		if err := kgc.Save(&snap, m); err != nil {
			return nil, fmt.Errorf("saving %s: %w", ms.name, err)
		}
		in.models = append(in.models, m)
		specs[i] = service.ModelSpec{Name: ms.name, Dim: ms.dim, Seed: modelSeed, Snapshot: snap.Bytes()}
	}

	rotation := w.jobSeeds
	if len(w.numSamples) > 0 {
		rotation = len(w.numSamples)
	}
	for i := 0; i < rotation; i++ {
		spec := service.JobSpec{
			Strategy:   w.strategy,
			Precision:  w.precision,
			MaxQueries: w.maxQueries,
			Seed:       mix(seed, 200+uint64(i)),
		}
		if w.strategy != "full" {
			spec.Recommender = "L-WD"
		}
		if len(w.numSamples) > 0 {
			spec.NumSamples = w.numSamples[i]
		}
		if len(specs) == 1 {
			spec.Model = specs[0]
		} else {
			spec.Models = specs
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, spec)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// trainedModel builds a model and trains it for one epoch on a slice of the
// training split, so its snapshot differs from the constructor's
// initialization: a server that ignored the snapshot would fail the check.
func trainedModel(ms modelShape, g *kg.Graph, seed int64) (kgc.Model, error) {
	m, err := kgc.New(ms.name, g, ms.dim, seed)
	if err != nil {
		return nil, err
	}
	sub := *g
	if len(sub.Train) > 1000 {
		sub.Train = sub.Train[:1000]
	}
	kgc.Train(m, &sub, kgc.TrainConfig{Epochs: 1, LR: 0.1, NegSamples: 1, Margin: 2, Seed: seed})
	return m, nil
}

// computeReferences evaluates every body's spec in-process with the library
// (core and eval directly, not the service layer) and the in-memory models
// the snapshots were saved from.
func (in *inputs) computeReferences() error {
	in.want = make([][]service.ResultStatus, len(in.specs))
	for i, spec := range in.specs {
		res, err := referenceResults(in, spec)
		if err != nil {
			return err
		}
		in.want[i] = res
	}
	return nil
}

func referenceResults(in *inputs, spec service.JobSpec) ([]service.ResultStatus, error) {
	g := in.graph
	prec, err := store.ParsePrecision(spec.Precision)
	if err != nil {
		return nil, err
	}
	opts := eval.Options{Filter: in.filter, MaxQueries: spec.MaxQueries, Seed: spec.Seed, SeedSet: true, Precision: prec}
	var res []eval.Result
	if spec.Strategy == "full" {
		res = eval.EvaluateMany(in.models, g, g.Test, eval.NewFullProvider(g.NumEntities), opts)
	} else {
		strategy, err := core.ParseStrategy(spec.Strategy)
		if err != nil {
			return nil, err
		}
		rec, err := recommender.ByName(spec.Recommender, serverSeed)
		if err != nil {
			return nil, err
		}
		fw := core.New(rec, numSamplesOf(spec, g), serverSeed)
		if err := fw.Fit(g); err != nil {
			return nil, err
		}
		res = fw.EstimateMany(in.models, g, g.Test, strategy, opts)
	}
	out := make([]service.ResultStatus, len(res))
	for i, r := range res {
		out[i] = resultStatus(r)
	}
	return out, nil
}

// numSamplesOf resolves a spec's n_s as the server does: 0 means |E|/10.
func numSamplesOf(spec service.JobSpec, g *kg.Graph) int {
	if spec.NumSamples > 0 {
		return spec.NumSamples
	}
	return max(g.NumEntities/10, 1)
}

func resultStatus(r eval.Result) service.ResultStatus {
	return service.ResultStatus{
		MRR: r.MRR, Hits1: r.Hits1, Hits3: r.Hits3, Hits10: r.Hits10,
		MR: r.MR, Queries: r.Queries, CandidatesScored: r.CandidatesScored,
	}
}

// checkResults compares a terminal job's results to the reference, bit for
// bit on every metric; elapsed time is not compared.
func checkResults(st service.Status, want []service.ResultStatus) error {
	var got []service.ResultStatus
	if st.Result != nil {
		got = append(got, *st.Result)
	}
	for _, r := range st.Results {
		got = append(got, r.ResultStatus)
	}
	if len(got) != len(want) {
		return fmt.Errorf("job %s: %d results, want %d", st.ID, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := math.Float64bits(g.MRR) == math.Float64bits(w.MRR) &&
			math.Float64bits(g.Hits1) == math.Float64bits(w.Hits1) &&
			math.Float64bits(g.Hits3) == math.Float64bits(w.Hits3) &&
			math.Float64bits(g.Hits10) == math.Float64bits(w.Hits10) &&
			math.Float64bits(g.MR) == math.Float64bits(w.MR) &&
			g.Queries == w.Queries && g.CandidatesScored == w.CandidatesScored
		if !same {
			return fmt.Errorf("job %s model %d: got %+v, want %+v", st.ID, i, g, w)
		}
	}
	return nil
}

// loadDir reads a TSV dataset directory with the same rules as kgevald
// -data: entity and relation counts are the largest ids seen plus one.
func loadDir(dir string) (*kg.Graph, error) {
	read := func(name string) ([]kg.Triple, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kg.ReadTriplesTSV(f)
	}
	g := &kg.Graph{Name: filepath.Base(dir)}
	var err error
	if g.Train, err = read("train.tsv"); err != nil {
		return nil, err
	}
	if g.Valid, err = read("valid.tsv"); err != nil {
		return nil, err
	}
	if g.Test, err = read("test.tsv"); err != nil {
		return nil, err
	}
	for _, ts := range [][]kg.Triple{g.Train, g.Valid, g.Test} {
		for _, t := range ts {
			g.NumEntities = max(g.NumEntities, int(t.H)+1, int(t.T)+1)
			g.NumRelations = max(g.NumRelations, int(t.R)+1)
		}
	}
	f, err := os.Open(filepath.Join(dir, "types.tsv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if g.EntityTypes, err = kg.ReadTypesTSV(f, g.NumEntities); err != nil {
		return nil, err
	}
	for _, ts := range g.EntityTypes {
		for _, t := range ts {
			g.NumTypes = max(g.NumTypes, int(t)+1)
		}
	}
	return g, g.Validate()
}
