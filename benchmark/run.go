package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its fixture; setup_s is the
// median, the last fixture is the one measured.
const setupRepeats = 3

// minRounds is the fewest rounds a run measures however short --seconds is.
const minRounds = 3

// runDeadline is how long after its start a run stops sending: ops not
// started by then count as failed. With the HTTP client's timeout on top, a
// hung or very slow build still ends inside the 180 s a run may take.
const (
	runDeadline   = 120 * time.Second
	clientTimeout = 30 * time.Second
)

// runConfig is what one run is told.
type runConfig struct {
	seed     int64
	seconds  float64
	tiny     bool
	outDir   string
	deadline time.Duration // runDeadline, except in the test of the deadline
}

// roundsFor is how many rounds measure for about seconds: the count is fixed
// by the workload's round length on the container the benchmark was sized on
// (roundS), not by the clock, so that a slow commit and a fast one do the
// same work and rest on the same number of samples.
func roundsFor(seconds, roundS float64) int {
	if n := int(math.Ceil(seconds / roundS)); n > minRounds {
		return n
	}
	return minRounds
}

// roundStats is what one round's timed window measured.
type roundStats struct {
	wallS   float64
	cpuMS   float64
	allocMB float64
	samples []sample
	clients []*opCtx
}

func (r *roundStats) ops() int { return len(r.samples) }

// latencies returns the round's successful samples of one class.
func (r *roundStats) latencies(class string) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.class == class && s.ok {
			out = append(out, s.ms)
		}
	}
	return out
}

// cpuMillis is the process's user+system CPU time so far.
func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// liveHeapMB is the heap still reachable after two forced collections (the
// second one frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runRound runs one round: the untimed preparation, then every client's
// fixed number of ops in a closed loop (the timed window), then afterOps
// (if any) and the untimed checks.
func runRound(w workload, h *harness, round int, afterOps func()) (*roundStats, error) {
	if err := w.prepRound(round); err != nil {
		return nil, fmt.Errorf("round %d: %w", round, err)
	}
	rs := &roundStats{}
	for cl := 0; cl < w.clients(); cl++ {
		rs.clients = append(rs.clients, &opCtx{h: h, cl: cl, round: round})
	}
	alloc0, cpu0, start := totalAllocMB(), cpuMillis(), time.Now()
	var wg sync.WaitGroup
	for _, x := range rs.clients {
		wg.Add(1)
		go func(x *opCtx) {
			defer wg.Done()
			for i := 0; i < w.opsPerRound(); i++ {
				if h.expired() {
					h.fail(x.opName(i), "not sent: the run's deadline had passed")
					x.record("explain", 0, false)
					continue
				}
				w.op(x.cl, round, i, x)
			}
		}(x)
	}
	wg.Wait()
	rs.wallS = time.Since(start).Seconds()
	rs.cpuMS = cpuMillis() - cpu0
	rs.allocMB = totalAllocMB() - alloc0
	for _, x := range rs.clients {
		rs.samples = append(rs.samples, x.samples...)
	}
	if afterOps != nil {
		afterOps()
	}
	w.finishRound(round)
	return rs, nil
}

// setupTimed builds the workload's fixture repeats times and returns the
// last one with the median set-up time. The run's deadline counts from start.
func setupTimed(name string, cfg runConfig, start time.Time, repeats int) (workload, *harness, float64, error) {
	var times []float64
	for k := 0; ; k++ {
		w, err := newWorkload(name)
		if err != nil {
			return nil, nil, 0, err
		}
		h := newHarness(name, cfg.tiny, start.Add(cfg.deadline))
		t0 := time.Now()
		err = w.setup(h, cfg.seed)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			h.close()
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if k == repeats-1 {
			return w, h, median(times), nil
		}
		w.close()
		h.close()
	}
}

// e2eRun is the outcome of one untraced run.
type e2eRun struct {
	metrics   map[string]metricValue
	attempted int
	failed    int
	failures  []failure
	digest    string
	rounds    int
}

// metricValue is one reported number with its spread across rounds and how
// many samples it rests on.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Samples int     `json:"samples"`
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(name string, cfg runConfig) (*e2eRun, error) {
	start := time.Now()
	heap0 := liveHeapMB()
	w, h, setupS, err := setupTimed(name, cfg, start, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer h.close()
	defer w.close()

	// live_heap_mb is read after the last round's ops, before its tables
	// are unloaded: every run has the same number of rounds behind it then.
	// A run the deadline cut short reads it after the round that was cut.
	n := roundsFor(cfg.seconds, w.roundSeconds())
	var rounds []*roundStats
	heapMB, cut := 0.0, false
	for r := 0; r < n && !cut; r++ {
		rs, err := runRound(w, h, r, func() {
			if cut = h.expired(); cut || r == n-1 {
				heapMB = liveHeapMB() - heap0
			}
		})
		if err != nil {
			return nil, err
		}
		if r == 0 {
			h.hashing.Store(false)
		}
		rounds = append(rounds, rs)
	}

	var p50s, rpss, cpus, allocs, pooled []float64
	attempted := 0
	for _, rs := range rounds {
		lat := rs.latencies("explain")
		pooled = append(pooled, lat...)
		p50s = append(p50s, median(lat))
		rpss = append(rpss, ratio(float64(len(lat)), rs.wallS))
		cpus = append(cpus, ratio(rs.cpuMS, float64(rs.ops())))
		allocs = append(allocs, ratio(rs.allocMB, float64(rs.ops())))
		attempted += rs.ops()
	}
	mv := func(vals []float64, n int) metricValue {
		lo, hi := spread(vals)
		return metricValue{Value: median(vals), Lo: lo, Hi: hi, Samples: n}
	}
	out := &e2eRun{
		metrics: map[string]metricValue{
			"explain_p50_ms":  mv(p50s, len(pooled)),
			"explain_rps":     mv(rpss, len(pooled)),
			"cpu_ms_per_op":   mv(cpus, attempted),
			"alloc_mb_per_op": mv(allocs, attempted),
			"live_heap_mb":    {Value: heapMB, Lo: heapMB, Hi: heapMB, Samples: 1},
			"setup_s":         {Value: setupS, Lo: setupS, Hi: setupS, Samples: setupRepeats},
		},
		attempted: attempted,
		failed:    h.failureCount(),
		failures:  h.failures,
		digest:    h.requestDigest(),
		rounds:    len(rounds),
	}
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	return out, nil
}
