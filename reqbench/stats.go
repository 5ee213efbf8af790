package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// minTail is how many samples must rank beyond a reported tail percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q <= 1)
// and whether at least minTail samples rank beyond it. A tail percentile
// read from fewer samples is noise, so callers withhold it when ok is false.
// The median (q = 0.5) is reported whenever there is at least one sample.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	beyond := n - 1 - idx
	return s[idx], q <= 0.5 || beyond >= minTail
}

// median is percentile(samples, 0.5), 0 for no samples.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// calibration records how fast this machine runs a pure spin loop at one
// goroutine and at GOMAXPROCS goroutines: numbers from a shared machine are
// read against it.
type calibration struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	GitRev        string  `json:"git_rev"`
	Spin1PerUS    float64 `json:"spin_1_per_us"`
	SpinNPerUS    float64 `json:"spin_n_per_us"`
	ParallelScale float64 `json:"parallel_scale"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine while the run measured (-1 where /proc/stat is unreadable).
	StealPct float64 `json:"steal_pct"`
}

func calibrate(gitRev string) calibration {
	c := calibration{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev,
	}
	c.Spin1PerUS = spinRate(1, 200*time.Millisecond)
	c.SpinNPerUS = spinRate(c.GOMAXPROCS, 200*time.Millisecond)
	c.ParallelScale = c.SpinNPerUS / c.Spin1PerUS
	return c
}

// spinSink keeps the spin loop's result observable so it is not optimized
// away.
var spinSink atomic.Uint64

// spinRate runs a xorshift loop on n goroutines for d and returns total
// iterations per microsecond.
func spinRate(n int, d time.Duration) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			var iters int64
			for time.Since(start) < d {
				for j := 0; j < 1<<14; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				iters += 1 << 14
			}
			spinSink.Add(x)
			total.Add(iters)
		}(uint64(i) + 0x9e3779b97f4a7c15)
	}
	wg.Wait()
	return float64(total.Load()) / float64(time.Since(start).Microseconds())
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat; ok is false where it cannot.
func cpuTicks() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		total += x
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = x
		}
	}
	return steal, total, true
}
