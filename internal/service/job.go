// Package service turns the kgeval library into a long-lived evaluation
// system: the paper's argument is that a fitted recommender plus 2·|R|
// candidate samplings makes link-predictor evaluation cheap enough to run
// constantly, which pays off only when evaluations can be submitted, queued
// and served behind one API instead of one-shot CLI runs.
//
// The package provides three layers:
//
//	Job             a queued evaluation request — one model or a fleet
//	                evaluated over shared pools — with observable state
//	                transitions, incremental progress and cancellation;
//	FrameworkCache  an LRU of fitted core.Frameworks keyed by graph
//	                fingerprint + recommender + n_s, so Fit cost is paid
//	                once and amortized across requests;
//	Engine          a bounded worker pool executing jobs against a host
//	                graph, with per-job context cancellation.
//
// NewServer wraps an Engine in an HTTP/JSON API (job submission, status,
// SSE progress streaming, cancellation); cmd/kgevald is the binary.
package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"kgeval/internal/eval"
	"kgeval/internal/obs/trace"
)

// State is a job's lifecycle phase. Valid transitions:
//
//	queued → running → succeeded | failed | canceled | expired
//	queued → canceled            (cancelled before a worker picked it up)
//	queued → expired             (deadline passed while still waiting)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	// StateExpired is the terminal state of a job whose deadline
	// (JobSpec.TimeoutMS, or the engine default) passed — whether it was
	// still queued or already running. The deadline covers the job's whole
	// lifetime: queue wait, framework Fit, and evaluation.
	StateExpired State = "expired"
)

// Terminal reports whether no further transitions can occur.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled || s == StateExpired
}

// ModelSpec identifies a serialized model snapshot. The snapshot bytes are
// the kgc.Save wire format; Name/Dim/Seed are the constructor arguments the
// snapshot was saved under (kgc.Load requires a matching architecture).
// encoding/json transports Snapshot as base64.
type ModelSpec struct {
	Name     string `json:"name"`
	Dim      int    `json:"dim"`
	Seed     int64  `json:"seed,omitempty"`
	Snapshot []byte `json:"snapshot"`
}

// JobSpec is the submission payload for one evaluation.
type JobSpec struct {
	// Model is the single snapshot to evaluate. Mutually exclusive with
	// Models.
	Model ModelSpec `json:"model"`
	// Models, when non-empty, evaluates several snapshots in one pass over
	// shared candidate pools (core.Framework.EstimateMany): pools are drawn
	// once, which guarantees every model of the fleet is ranked on
	// identical candidates — the model-selection workload. It is not a
	// speed-up over separate jobs.
	// Results appear per model in Status.Results, in submission order.
	Models []ModelSpec `json:"models,omitempty"`
	// Split selects the query set: "test" (default) or "valid".
	Split string `json:"split,omitempty"`
	// Strategy is "R", "P" or "S" (core.ParseStrategy), or "full" for the
	// exhaustive filtered protocol the estimates are compared against.
	Strategy string `json:"strategy,omitempty"`
	// Recommender names the relation recommender (recommender.ByName);
	// default L-WD. Ignored for strategy "full".
	Recommender string `json:"recommender,omitempty"`
	// NumSamples is the per-(relation, direction) candidate budget n_s;
	// 0 means the engine default (|E|/10).
	NumSamples int `json:"num_samples,omitempty"`
	// MaxQueries bounds the evaluated triples (0 = whole split).
	MaxQueries int `json:"max_queries,omitempty"`
	// Seed drives candidate sampling; 0 means the engine default.
	Seed int64 `json:"seed,omitempty"`
	// Precision selects the embedding-store precision candidates are scored
	// at: "float64" (default), "float32" or "int8" (store.ParsePrecision).
	// Reduced precisions trade a bounded MRR deviation for smaller stores
	// and faster scoring.
	Precision string `json:"precision,omitempty"`
	// TimeoutMS is the job's end-to-end deadline in milliseconds, counted
	// from submission and covering queue wait, framework Fit and
	// evaluation. 0 applies the engine default (EngineConfig.DefaultTimeout;
	// no deadline if that is unset too). A job whose deadline passes reaches
	// the terminal state "expired" — immediately if still queued, at the
	// next cancellation point if running.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Progress is a monotone completion counter over the job's query triples.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Event is one element of a job's progress stream.
type Event struct {
	Type     string    `json:"type"` // "state" or "progress"
	State    State     `json:"state"`
	Progress *Progress `json:"progress,omitempty"`
}

// Job is one queued evaluation. All exported access is through snapshot and
// subscription methods; fields are guarded by mu.
type Job struct {
	ID   string
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	// metrics, when set (jobs born in an engine), receives state-transition
	// latency observations; nil-safe otherwise.
	metrics *engineMetrics

	// span is the job's trace span (child of the submitting request's span,
	// or a trace root), carried by ctx into the evaluation; queueSpan times
	// the queued→running wait under it. Both are nil-safe, so jobs created
	// without tracing (unit tests) behave identically.
	span      *trace.Span
	queueSpan *trace.Span

	mu       sync.Mutex
	state    State
	progress Progress
	result   *eval.Result
	results  []ModelResult // multi-model jobs only
	errMsg   string
	cacheHit bool
	degraded bool // precision lowered by the memory-budget admission gate
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan Event]struct{}
}

// newJob builds a queued job. span, when non-nil, becomes the job's trace
// span: the job context carries it (NOT the submitting request's context —
// the job must survive the HTTP request that created it), so the evaluation
// pipeline parents its spans under the job.
//
// A positive Spec.TimeoutMS puts a deadline on the job context — the same
// context queue wait, Fit and evaluation observe — and arms a watcher that
// flips the job to expired the moment the deadline passes, so even a job no
// worker ever picks up reaches a terminal state (and its SSE subscribers a
// terminal event) on time.
func newJob(id string, spec JobSpec, span *trace.Span) *Job {
	base := trace.ContextWith(context.Background(), span)
	var ctx context.Context
	var cancel context.CancelFunc
	timeout := time.Duration(spec.TimeoutMS) * time.Millisecond
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := &Job{
		ID:        id,
		Spec:      spec,
		ctx:       ctx,
		cancel:    cancel,
		span:      span,
		queueSpan: span.Child("queue_wait"),
		state:     StateQueued,
		created:   time.Now(),
		subs:      map[chan Event]struct{}{},
	}
	if timeout > 0 {
		// AfterFunc also runs when the job finishes (terminal transitions
		// cancel the context to release this watcher); only a deadline-caused
		// Done expires the job, and expire on an already-terminal job is a
		// no-op.
		context.AfterFunc(ctx, func() {
			if context.Cause(ctx) == context.DeadlineExceeded {
				j.expire()
			}
		})
	}
	return j
}

// TraceID returns the hex trace ID of the job's trace, or "" when untraced.
func (j *Job) TraceID() string { return j.span.TraceID() }

// transition moves the job to next if the move is legal, returning whether
// it happened. The optional onApply runs under the job lock, atomically with
// the state change (used to attach results/errors). Terminal states close
// every subscriber channel, after which subscribers read the final state via
// Status.
func (j *Job) transition(next State, onApply func()) bool {
	j.mu.Lock()
	if !validTransition(j.state, next) {
		j.mu.Unlock()
		return false
	}
	j.state = next
	switch {
	case next == StateRunning:
		j.started = time.Now()
	case next.Terminal():
		j.finished = time.Now()
	}
	if onApply != nil {
		onApply()
	}
	switch {
	case next == StateRunning:
		j.queueSpan.End()
	case next.Terminal():
		// A job cancelled while queued never ran; its queue-wait span ends
		// here with it (End is idempotent for the common ran-then-finished
		// path).
		j.queueSpan.End()
		j.span.End(trace.String("state", string(next)), trace.Bool("cache_hit", j.cacheHit))
		// Release the context: frees the deadline timer/watcher of jobs with
		// a timeout and makes ctx.Err() a reliable "job is settled" signal.
		// AfterFunc watchers run on their own goroutine, so cancelling under
		// j.mu cannot deadlock with expire().
		j.cancel()
	}
	j.metrics.observeTransition(next, j)
	j.publishLocked(Event{Type: "state", State: next})
	if next.Terminal() {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = map[chan Event]struct{}{}
	}
	j.mu.Unlock()
	return true
}

func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCanceled || to == StateExpired
	case StateRunning:
		return to.Terminal()
	}
	return false
}

// Cancel requests cancellation. The job's state flips to canceled
// immediately (whether queued or running) and its context is cancelled so an
// in-flight Evaluate stops at the next query boundary; the worker's later
// succeed/fail attempt becomes a no-op. Cancelling a terminal job has no
// effect. Returns whether the state changed.
func (j *Job) Cancel() bool {
	j.cancel()
	return j.transition(StateCanceled, nil)
}

// setProgress records done/total and publishes a progress event. Safe for
// concurrent calls (it is the eval.Options.Progress hook). Publishes are
// coalesced to ~0.5% steps (always including completion), so a large split
// doesn't fan out one event — and one Status marshal per SSE subscriber —
// per evaluated triple.
func (j *Job) setProgress(done, total int) {
	step := total / 200
	if step < 1 {
		step = 1
	}
	j.mu.Lock()
	if (done > j.progress.Done || total != j.progress.Total) &&
		(done == total || done-j.progress.Done >= step) {
		j.progress = Progress{Done: done, Total: total}
		p := j.progress
		j.publishLocked(Event{Type: "progress", State: j.state, Progress: &p})
	}
	j.mu.Unlock()
}

func (j *Job) succeed(res eval.Result, cacheHit bool) bool {
	return j.transition(StateSucceeded, func() {
		j.result = &res
		j.cacheHit = cacheHit
	})
}

// succeedMany finalizes a multi-model job with one result per model.
func (j *Job) succeedMany(names []string, res []eval.Result, cacheHit bool) bool {
	return j.transition(StateSucceeded, func() {
		j.results = make([]ModelResult, len(res))
		for i, r := range res {
			j.results[i] = ModelResult{Model: names[i], ResultStatus: resultStatus(r)}
		}
		j.cacheHit = cacheHit
	})
}

func (j *Job) fail(err error) bool {
	return j.transition(StateFailed, func() { j.errMsg = err.Error() })
}

// expire finalizes a job whose deadline passed, whether it was queued or
// running. The context is already Done (the deadline fired it), so an
// in-flight evaluation stops at its next cancellation point.
func (j *Job) expire() bool {
	return j.transition(StateExpired, func() {
		j.errMsg = fmt.Sprintf("service: job deadline exceeded (timeout_ms=%d)", j.Spec.TimeoutMS)
	})
}

// shed cancels a queued job administratively (graceful drain), recording
// reason as the job error so clients learn why it never ran. Subscribers
// get the terminal state event and stream close like any other terminal
// transition.
func (j *Job) shed(reason string) bool {
	j.cancel()
	return j.transition(StateCanceled, func() { j.errMsg = reason })
}

// publishLocked fans an event out to subscribers without blocking: a
// subscriber whose buffer is full loses intermediate progress events, never
// the terminal state (terminal delivery is by channel close + Status).
func (j *Job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers a progress listener. The returned channel is closed
// when the job reaches a terminal state (immediately, if it already has);
// cancel the subscription with the returned func. Intermediate progress
// events may be dropped under backpressure, but Done values are monotone.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// ResultStatus is the JSON form of an evaluation result.
type ResultStatus struct {
	MRR              float64 `json:"mrr"`
	Hits1            float64 `json:"hits1"`
	Hits3            float64 `json:"hits3"`
	Hits10           float64 `json:"hits10"`
	MR               float64 `json:"mr"`
	Queries          int     `json:"queries"`
	CandidatesScored int64   `json:"candidates_scored"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

// ModelResult pairs one model's name with its metrics in a multi-model job.
type ModelResult struct {
	Model string `json:"model"`
	ResultStatus
}

func resultStatus(r eval.Result) ResultStatus {
	return ResultStatus{
		MRR: r.MRR, Hits1: r.Hits1, Hits3: r.Hits3, Hits10: r.Hits10,
		MR: r.MR, Queries: r.Queries,
		CandidatesScored: r.CandidatesScored,
		ElapsedMS:        float64(r.Elapsed) / float64(time.Millisecond),
	}
}

// Status is a point-in-time snapshot of a job, also the API's JSON shape.
// Single-model jobs populate Model and Result; multi-model jobs populate
// Models and, once succeeded, Results (one entry per model, in submission
// order).
type Status struct {
	ID          string   `json:"id"`
	State       State    `json:"state"`
	Model       string   `json:"model,omitempty"`
	Models      []string `json:"models,omitempty"`
	Split       string   `json:"split"`
	Strategy    string   `json:"strategy"`
	Recommender string   `json:"recommender,omitempty"`
	NumSamples  int      `json:"num_samples,omitempty"`
	Precision   string   `json:"precision,omitempty"`
	// PrecisionDegraded marks jobs whose precision the memory-budget
	// admission gate lowered from the float64 default to float32.
	PrecisionDegraded bool `json:"precision_degraded,omitempty"`
	// TimeoutMS echoes the job's effective deadline (spec value, or the
	// engine default applied at submission); 0 = no deadline.
	TimeoutMS int      `json:"timeout_ms,omitempty"`
	CacheHit  bool     `json:"cache_hit"`
	Progress  Progress `json:"progress"`
	// ThroughputTPS and ETAMS enrich progress snapshots of running jobs:
	// evaluated triples per second since the job started, and the linear
	// extrapolation of the time remaining. Zero until the first progress.
	ThroughputTPS float64 `json:"throughput_tps,omitempty"`
	ETAMS         float64 `json:"eta_ms,omitempty"`
	// QueueWaitMS is the time the job spent (or, while still queued, has so
	// far spent) waiting for a worker.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// TraceID links the job to its trace at /v1/jobs/{id}/trace.
	TraceID    string        `json:"trace_id,omitempty"`
	Result     *ResultStatus `json:"result,omitempty"`
	Results    []ModelResult `json:"results,omitempty"`
	Error      string        `json:"error,omitempty"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:                j.ID,
		State:             j.state,
		Model:             j.Spec.Model.Name,
		Split:             j.Spec.Split,
		Strategy:          j.Spec.Strategy,
		Recommender:       j.Spec.Recommender,
		NumSamples:        j.Spec.NumSamples,
		Precision:         j.Spec.Precision,
		PrecisionDegraded: j.degraded,
		TimeoutMS:         j.Spec.TimeoutMS,
		CacheHit:          j.cacheHit,
		Progress:          j.progress,
		Error:             j.errMsg,
		CreatedAt:         j.created,
		TraceID:           j.span.TraceID(),
	}
	switch {
	case !j.started.IsZero():
		st.QueueWaitMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
	case j.state == StateQueued:
		st.QueueWaitMS = float64(time.Since(j.created)) / float64(time.Millisecond)
	case !j.finished.IsZero():
		// Cancelled while queued: the wait ended at cancellation.
		st.QueueWaitMS = float64(j.finished.Sub(j.created)) / float64(time.Millisecond)
	}
	for _, ms := range j.Spec.Models {
		st.Models = append(st.Models, ms.Name)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if j.state == StateRunning && j.progress.Done > 0 {
		if elapsed := time.Since(j.started).Seconds(); elapsed > 0 {
			st.ThroughputTPS = float64(j.progress.Done) / elapsed
			st.ETAMS = float64(j.progress.Total-j.progress.Done) / st.ThroughputTPS * 1000
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.result != nil {
		rs := resultStatus(*j.result)
		st.Result = &rs
	}
	if j.results != nil {
		st.Results = append([]ModelResult(nil), j.results...)
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (s State) String() string { return string(s) }

var _ fmt.Stringer = StateQueued
