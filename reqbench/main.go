// Command reqbench is kgeval's request-level benchmark. It measures what a
// user of kgevald sees: a job POSTed with model snapshots, timed until the
// client reads the terminal SSE "done" event, with every result checked bit
// for bit against the library computed in-process.
//
// A run generates a graph (TSV files) and model snapshots from -seed,
// starts kgevald as its own process on that graph, warms it up, and drives
// it with closed-loop clients for -seconds. With -trace 1 it instead
// reports per-layer metrics: the same HTTP loop untraced and traced, then
// an in-process replay of the workload's jobs that times each public call
// (decode, kgc load, cache lookup, fit, evaluation pass, render). Spans are
// kept in memory and written at the end in Chrome trace_event JSON.
//
// Usage, from the repository root (reqbench/run.sh builds both binaries):
//
//	bash reqbench/run.sh --workload hit-sampled --seed 1 --seconds 30 --trace 0
//	for w in hit-sampled miss-fit full-fleet; do
//		bash reqbench/run.sh --workload $w --seed 1 --seconds 30 --trace 1
//	done
//
// Each run also writes report.json (every metric with its sample count,
// per-phase job tallies, machine calibration) and, with -trace 1,
// trace.json under .bench_build/runs/<workload>-seed<n>-trace<bool>/.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Everything above it is a human-readable report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/obs/trace"
	"kgeval/internal/service"
)

// maxConns bounds the load generator's connections to the server: the
// benchmark is sized for a two-CPU machine, one connection per CPU.
const maxConns = 2

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	server   string
	workdir  string
}

// setupsPerRun is how many times an untraced run starts and warms a server;
// setup_s is the median.
const setupsPerRun = 5

func main() {
	var (
		cfg      config
		name     = flag.String("workload", "", "workload to run: hit-sampled, miss-fit or full-fleet")
		traceRun = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.StringVar(&cfg.server, "server", ".bench_build/bin/kgevald", "kgevald binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/runs", "directory for generated inputs, logs and traces")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || cfg.seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "reqbench: need -workload (hit-sampled, miss-fit or full-fleet), -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.workload, cfg.trace = w, *traceRun == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts job outcomes of one phase.
type tally struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"` // succeeded with a correct result
	Failed    int `json:"failed"`    // failed, canceled, or a transport/protocol error
	Expired   int `json:"expired"`
	Rejected  int `json:"rejected"` // 429 or 503 on submit
	Wrong     int `json:"wrong_result"`
}

func (t tally) bad() int { return t.Failed + t.Expired + t.Rejected + t.Wrong }

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d succeeded=%d failed=%d expired=%d rejected=%d wrong_result=%d",
		t.Attempted, t.Succeeded, t.Failed, t.Expired, t.Rejected, t.Wrong)
}

// add classifies one outcome, checking a succeeded job's results against
// the reference; the first mismatch is reported through wrong.
func (t *tally) add(o outcome, in *inputs, wrong *error) {
	t.Attempted++
	switch {
	case o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable:
		t.Rejected++
	case o.err != nil:
		t.Failed++
	case o.status.State == service.StateSucceeded:
		if err := checkResults(o.status, in.want[o.body]); err != nil {
			t.Wrong++
			if *wrong == nil {
				*wrong = err
			}
			return
		}
		t.Succeeded++
	case o.status.State == service.StateExpired:
		t.Expired++
	default:
		t.Failed++
	}
}

// report accumulates what a run prints and writes.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Calibration calibration       `json:"calibration"`
	Phases      map[string]*tally `json:"phases"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples"`
	// Jobs lists the timed phase's jobs in completion order: start offset
	// from the phase start, POST round trip and total time, in ms.
	Jobs       [][3]float64 `json:"jobs,omitempty"`
	FirstWrong string       `json:"first_wrong_result,omitempty"`
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{v, unit}
	r.Samples[name] = n
}

func run(cfg config) (*result, error) {
	w := cfg.workload
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d-trace%v", w.name, cfg.seed, cfg.trace))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Phases: map[string]*tally{}, Metrics: map[string]metric{}, Samples: map[string]int{}}
	fmt.Printf("reqbench workload=%s seed=%d seconds=%d trace=%v\n  %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, w.why)
	rep.Calibration = calibrate(gitRev())
	c := rep.Calibration
	fmt.Printf("calibration: nproc=%d gomaxprocs=%d go=%s git=%s spin_1=%.1f/us spin_%d=%.1f/us scale=%.2fx\n",
		c.NumCPU, c.GOMAXPROCS, c.GoVersion, c.GitRev, c.Spin1PerUS, c.GOMAXPROCS, c.SpinNPerUS, c.ParallelScale)

	t0 := time.Now()
	in, err := generate(w, cfg.seed, filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := in.computeReferences(); err != nil {
		return nil, fmt.Errorf("computing references: %w", err)
	}
	fmt.Printf("inputs: %d bodies of %.2f MB generated in %.2fs, references in %.2fs\n",
		len(in.bodies), float64(len(in.bodies[0]))/1e6, t1.Sub(t0).Seconds(), time.Since(t1).Seconds())

	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true,
	}}
	var wrong error
	warm := &tally{}
	rep.Phases["warm-up"] = warm
	var srv *serverProc
	var setups []float64
	nSetups := setupsPerRun
	if cfg.trace {
		nSetups = 1 // setup_s is an end-to-end metric; the traced run needs one server
	}
	for i := 0; i < nSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		s, ready, err := startServer(cfg.server, in.dataDir, filepath.Join(dir, fmt.Sprintf("server-%d.log", i)), hc)
		if err != nil {
			return nil, err
		}
		srv = s
		defer srv.stop() // stop is idempotent; this covers error returns
		var health struct{ Fingerprint string }
		if err := srv.getJSON("/healthz", &health); err != nil {
			return nil, err
		}
		if want := core.Fingerprint(in.graph); health.Fingerprint != want {
			return nil, fmt.Errorf("server hosts graph %s, references were computed on %s", health.Fingerprint, want)
		}
		outs, wall := srv.closedLoop(in, w.clients, forJobs(w.warmJobs), nil, nil)
		for _, o := range outs {
			warm.add(o, in, &wrong)
		}
		setups = append(setups, (ready + wall).Seconds())
		fmt.Printf("setup %d: ready in %.3fs, warm-up %.3fs\n", i, ready.Seconds(), wall.Seconds())
	}
	fmt.Printf("phase warm-up: %v\n", warm)

	d := time.Duration(cfg.seconds) * time.Second
	steal0, total0, ok0 := cpuTicks()
	if cfg.trace {
		err = tracedRun(rep, cfg, srv, in, d, dir, &wrong)
	} else {
		err = timedRun(rep, srv, in, w.clients, d, setups, &wrong)
	}
	if err != nil {
		return nil, err
	}
	srv.stop()
	rep.Calibration.StealPct = -1
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		rep.Calibration.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	fmt.Printf("cpu steal while measuring: %.1f%%\n", rep.Calibration.StealPct)

	// The result carries exactly the benchmark's contract metrics; the
	// report keeps everything measured.
	names := endToEndNames
	if cfg.trace {
		names = perLayerNames
	}
	res := &result{Correct: wrong == nil, Metrics: map[string]metric{}}
	for _, name := range names {
		m, ok := rep.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	for name, t := range rep.Phases {
		if name == "warm-up" {
			continue
		}
		res.Attempted += t.Attempted
		res.Failed += t.bad()
	}
	if warm.bad() > 0 || res.Failed > 0 {
		res.Correct = false
	}
	if wrong != nil {
		rep.FirstWrong = wrong.Error()
		fmt.Println("WRONG RESULT:", wrong)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), buf, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// timedRun is the untraced run: the closed loop for d, reported as the
// end-to-end metrics.
func timedRun(rep *report, srv *serverProc, in *inputs, clients int, d time.Duration, setups []float64, wrong *error) error {
	// kgevald's RSS grows with every job it has served, so the contract
	// reads it at a fixed job count: a faster server, which fits more jobs
	// into the run, is not charged for them. The end-of-run peak is
	// reported beside it.
	rssErr := fmt.Errorf("fewer than %d jobs completed", rssAfterJobs)
	var rss float64
	outs, wall := srv.closedLoop(in, clients, forDuration(d), nil, func(completed int) {
		if completed == rssAfterJobs {
			rss, rssErr = srv.peakRSSMB()
		}
	})
	t := &tally{}
	rep.Phases["timed"] = t
	var total, submit []float64
	for _, o := range outs {
		t.add(o, in, wrong)
		rep.Jobs = append(rep.Jobs, [3]float64{ms(o.start.Sub(outs[0].start)), ms(o.submit), ms(o.total)})
		if o.err == nil && o.status.State.Terminal() {
			total = append(total, ms(o.total))
		}
		if o.code == http.StatusAccepted {
			submit = append(submit, ms(o.submit))
		}
	}
	fmt.Printf("phase timed: %v over %.2fs\n", t, wall.Seconds())
	if rssErr != nil {
		return fmt.Errorf("reading server RSS: %w", rssErr)
	}
	rssEnd, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("job_p50_ms", median(total), "ms", len(total))
	if p90, ok := percentile(total, 0.9); ok {
		rep.set("job_p90_ms", p90, "ms", len(total))
	}
	rep.set("submit_p50_ms", median(submit), "ms", len(submit))
	rep.set("jobs_per_s", float64(t.Succeeded)/wall.Seconds(), "1/s", t.Succeeded)
	rep.set("failed_ratio", float64(t.bad())/float64(t.Attempted), "ratio", t.Attempted)
	rep.set("server_rss_mb", rss, "MiB", rssAfterJobs)
	rep.set("server_rss_end_mb", rssEnd, "MiB", len(outs))
	rep.set("setup_s", median(setups), "s", len(setups))
	for _, n := range []string{"job_p50_ms", "job_p90_ms", "submit_p50_ms", "jobs_per_s", "failed_ratio",
		"server_rss_mb", "server_rss_end_mb", "setup_s"} {
		m, ok := rep.Metrics[n]
		if !ok {
			fmt.Printf("  %-18s withheld: fewer than %d of %d jobs beyond it\n", n, minTail, len(total))
			continue
		}
		fmt.Printf("  %-18s %12.4f %-5s (n=%d)\n", n, m.Value, m.Unit, rep.Samples[n])
	}
	return nil
}

// rssAfterJobs is the timed job count at which server_rss_mb is read.
const rssAfterJobs = 50

// endToEndNames are the untraced run's result metrics, the ones a
// regression gate compares. job_p90_ms and failed_ratio are measured and
// printed too but are not among them: on a shared two-vCPU VM job_p90_ms
// spread across ten seeds by 0.37 of its median, more than a useful gate
// bound, and failed_ratio is 0 on a healthy run (failures are reported as
// the result's failed count).
var endToEndNames = []string{"job_p50_ms", "submit_p50_ms", "jobs_per_s", "server_rss_mb", "setup_s"}

// tracedRun reports the per-layer metrics. It splits d in three: the HTTP
// loop untraced, the HTTP loop with client spans (its /v1/stats delta gives
// the cache hit ratio), and an in-process replay timing each public call.
func tracedRun(rep *report, cfg config, srv *serverProc, in *inputs, d time.Duration, dir string, wrong *error) error {
	w := cfg.workload
	third := d / 3
	store := trace.NewStore(1, 1<<16)
	_, root := store.StartTrace(context.Background(), "reqbench "+w.name, trace.Int64("seed", cfg.seed))

	httpPhase := func(name string, span *trace.Span) []outcome {
		outs, _ := srv.closedLoop(in, w.clients, forDuration(third), span, nil)
		t := &tally{}
		rep.Phases[name] = t
		for _, o := range outs {
			t.add(o, in, wrong)
		}
		fmt.Printf("phase %s: %v\n", name, t)
		return outs
	}
	untracedOuts := httpPhase("http-untraced", nil)

	var before, after service.EngineStats
	if err := srv.getJSON("/v1/stats", &before); err != nil {
		return err
	}
	phase := root.Child("phase.http")
	tracedOuts := httpPhase("http-traced", phase)
	phase.End()
	if err := srv.getJSON("/v1/stats", &after); err != nil {
		return err
	}

	var untracedTotal, total, submit, queue, notify []float64
	for _, o := range untracedOuts {
		if o.err == nil {
			untracedTotal = append(untracedTotal, ms(o.total))
		}
	}
	for _, o := range tracedOuts {
		if o.err != nil || o.status.FinishedAt == nil {
			continue
		}
		total = append(total, ms(o.total))
		submit = append(submit, ms(o.submit))
		queue = append(queue, o.status.QueueWaitMS)
		notify = append(notify, ms(o.doneSeen.Sub(*o.status.FinishedAt)))
	}
	if len(total) == 0 || len(untracedTotal) == 0 {
		return errors.New("no completed jobs in the HTTP phases")
	}

	// Replay: one rotation of the bodies untimed (fills the replay's cache
	// as the warm-up filled the server's), then replay jobs for a third of d.
	rp := newReplayer(in)
	for i := range in.bodies {
		if _, err := rp.job(nil, i); err != nil {
			return err
		}
	}
	phase = root.Child("phase.replay")
	replay := &tally{}
	rep.Phases["replay"] = replay
	var lts []layerTimes
	start := time.Now()
	for i := 0; time.Since(start) < third; i++ {
		replay.Attempted++
		lt, err := rp.job(phase, i%len(in.bodies))
		if err != nil {
			return fmt.Errorf("replaying body %d: %w", i%len(in.bodies), err)
		}
		replay.Succeeded++
		lts = append(lts, lt)
	}
	phase.End()
	root.End()
	fmt.Printf("phase replay: %v\n", replay)

	col := func(f func(layerTimes) float64) float64 {
		v := make([]float64, len(lts))
		for i, lt := range lts {
			v[i] = f(lt)
		}
		return median(v)
	}
	n := len(lts)
	rep.set("service.submit_ms", median(submit), "ms", len(submit))
	rep.set("service.decode_ms", col(func(l layerTimes) float64 { return ms(l.decode) }), "ms", n)
	rep.set("kgc.load_ms", col(func(l layerTimes) float64 { return ms(l.load) }), "ms", n)
	rep.set("service.cache_lookup_ms", col(func(l layerTimes) float64 { return ms(l.lookup) }), "ms", n)
	rep.set("core.fit_ms", col(func(l layerTimes) float64 { return ms(l.fit) }), "ms", n)
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses
	rep.set("service.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), "ratio", int(lookups))
	rep.set("eval.pass_ms", col(func(l layerTimes) float64 { return ms(l.pass) }), "ms", n)
	rep.set("eval.plan_ms", col(func(l layerTimes) float64 { return ms(l.plan) }), "ms", n)
	rep.set("eval.pool_ms", col(func(l layerTimes) float64 { return ms(l.pool) }), "ms", n)
	rep.set("eval.score_ms", col(func(l layerTimes) float64 { return ms(l.score) }), "cpu_ms", n)
	rep.set("eval.rank_ms", col(func(l layerTimes) float64 { return ms(l.rank) }), "cpu_ms", n)
	rep.set("eval.candidates_scored", col(func(l layerTimes) float64 { return float64(l.candidates) }), "count", n)
	rep.set("eval.candidates_per_us", col(func(l layerTimes) float64 { return float64(l.candidates) / (ms(l.pass) * 1e3) }), "1/us", n)
	rep.set("service.queue_wait_ms", median(queue), "ms", len(queue))
	rep.set("service.notify_ms", median(notify), "ms", len(notify))
	rep.set("service.render_ms", col(func(l layerTimes) float64 { return ms(l.render) }), "ms", n)
	rep.set("runtime.alloc_mb_per_job", col(func(l layerTimes) float64 { return float64(l.allocBytes) / (1 << 20) }), "MiB", n)
	// The blocking path of a job: submit (which includes decode), queue
	// wait, load, cache lookup, fit, the evaluation pass, and notify (which
	// includes render). What the HTTP median has beyond their sum is
	// unattributed.
	attributed := 0.0
	for _, name := range []string{"service.submit_ms", "service.queue_wait_ms", "kgc.load_ms",
		"service.cache_lookup_ms", "core.fit_ms", "eval.pass_ms", "service.notify_ms"} {
		attributed += rep.Metrics[name].Value
	}
	p50 := median(total)
	rep.set("service.unattributed_ms", p50-attributed, "ms", len(total))
	rep.set("trace.overhead_pct", (p50/median(untracedTotal)-1)*100, "%", len(total)+len(untracedTotal))

	fmt.Printf("per-layer (%s, replay n=%d, traced HTTP n=%d, untraced HTTP n=%d):\n", w.name, n, len(total), len(untracedTotal))
	for _, name := range perLayerNames {
		m := rep.Metrics[name]
		fmt.Printf("  %-26s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, rep.Samples[name])
	}

	tracePath := filepath.Join(dir, "trace.json")
	buf, err := json.Marshal(root.Recorder().Snapshot().Chrome())
	if err != nil {
		return err
	}
	if err := os.WriteFile(tracePath, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s\n", tracePath)
	return nil
}

// perLayerNames is the per-layer table's print order.
var perLayerNames = []string{
	"service.submit_ms", "service.decode_ms", "kgc.load_ms", "service.cache_lookup_ms",
	"core.fit_ms", "service.cache_hit_ratio", "eval.pass_ms", "eval.plan_ms", "eval.pool_ms",
	"eval.score_ms", "eval.rank_ms", "eval.candidates_scored", "eval.candidates_per_us",
	"service.queue_wait_ms", "service.notify_ms", "service.render_ms",
	"runtime.alloc_mb_per_job", "service.unattributed_ms", "trace.overhead_pct",
}

// gitRev names the commit the benchmark runs from, or "unknown" outside a
// git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
