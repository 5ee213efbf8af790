package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kgeval/internal/obs/trace"
	"kgeval/internal/service"
)

// serverProc is one kgevald process hosting a generated dataset.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	hc   *http.Client
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// startServer launches kgevald on a free loopback port and returns once
// /healthz reports the engine up (not merely "starting"). The returned
// duration is the time from process start to ready.
func startServer(bin, dataDir, logPath string, hc *http.Client) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-data", dataDir, "-addr", addr,
		"-seed", strconv.Itoa(serverSeed), "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, hc: hc, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		var h struct{ Status string }
		if err := s.getJSON("/healthz", &h); err == nil && h.Status == "ok" {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, 0, fmt.Errorf("kgevald exited during start-up; see %s", logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("kgevald not ready after a minute; see %s", logPath)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the server to drain (SIGTERM), kills it if it has not exited
// within ten seconds, and waits for it.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

func (s *serverProc) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// outcome is one job as the client saw it.
type outcome struct {
	body     int // index into inputs.bodies
	start    time.Time
	submit   time.Duration // POST sent → 202 read
	total    time.Duration // POST sent → SSE done seen
	code     int           // POST status code
	status   service.Status
	doneSeen time.Time
	err      error
}

// runJob submits one body and follows the job's SSE stream to its done
// event. When parent is non-nil the job is recorded as a span under it,
// with the client's submit and wait intervals and the server's queue, run
// and notify intervals (read from the terminal status) as children.
func (s *serverProc) runJob(body []byte, parent *trace.Span) outcome {
	span := parent.Child("http.job")
	defer span.End()
	o := outcome{start: time.Now()}
	resp, err := s.hc.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	o.code = resp.StatusCode
	var accepted service.Status
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.submit = time.Since(o.start)
	span.ChildRecord("http.submit", o.start, o.start.Add(o.submit), trace.Int("status", o.code))
	if o.code != http.StatusAccepted {
		o.err = fmt.Errorf("POST /v1/jobs: %d", o.code)
		return o
	}
	if err != nil {
		o.err = fmt.Errorf("decoding 202 body: %w", err)
		return o
	}
	o.status, o.err = s.awaitDone(accepted.ID)
	o.doneSeen = time.Now()
	o.total = o.doneSeen.Sub(o.start)
	span.ChildRecord("http.await_done", o.start.Add(o.submit), o.doneSeen)
	if st := o.status; st.StartedAt != nil && st.FinishedAt != nil {
		span.ChildRecord("server.queue_wait", st.CreatedAt, *st.StartedAt)
		span.ChildRecord("server.run", *st.StartedAt, *st.FinishedAt, trace.Bool("cache_hit", st.CacheHit))
		span.ChildRecord("server.notify", *st.FinishedAt, o.doneSeen)
	}
	return o
}

// awaitDone reads a job's SSE stream until its terminal "done" event and
// returns the status that event carries.
func (s *serverProc) awaitDone(id string) (service.Status, error) {
	var st service.Status
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			io.Copy(io.Discard, resp.Body)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("stream %s ended without a done event", id)
}

// closedLoop runs clients that each send their next job only after the
// previous one reached a terminal state, until done(started, elapsed)
// reports true. Bodies rotate in order across all clients, continuing where
// the previous loop over in stopped, so a rotation never restarts between
// phases. onJob, when non-nil, is called after each job with the number
// completed so far. It returns every outcome and the wall time from the
// first POST to the last done event.
func (s *serverProc) closedLoop(in *inputs, clients int, done func(started int, elapsed time.Duration) bool, span *trace.Span, onJob func(completed int)) ([]outcome, time.Duration) {
	var (
		mu      sync.Mutex
		started int
		out     []outcome
		wg      sync.WaitGroup
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if done(started, time.Since(start)) {
			return 0, false
		}
		started++
		i := in.next
		in.next = (in.next + 1) % len(in.bodies)
		return i, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := s.runJob(in.bodies[i], span)
				o.body = i
				mu.Lock()
				out = append(out, o)
				if onJob != nil {
					onJob(len(out))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// forJobs ends a closed loop after n jobs.
func forJobs(n int) func(int, time.Duration) bool {
	return func(started int, _ time.Duration) bool { return started >= n }
}

// forDuration ends a closed loop after d.
func forDuration(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}
