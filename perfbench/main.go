// Command perfbench is the repository benchmark. It measures the host
// time the simulator costs to run (never simulated time) on three
// workloads, each from one process:
//
//	paper-regen   regenerates fig1, fig7, fig8b, fig9b and ext-tenant
//	miss-stream   a serial seed sweep of streaming mixes through service.RunCellSpec
//	serve-sweeps  an in-process service.Server driven over loopback HTTP
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the separate traced run and prints the per-layer breakdown. The last
// line of standard output is one JSON object; diagnostics go to standard
// error. A failed output check makes the result incorrect and the exit
// code 1. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds time.Duration
	// spans is the file the traced run writes its spans to.
	spans string
}

// report accumulates one run's outcome: attempted and failed operations,
// the failure reasons and the metrics.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// attempt counts n attempted operations.
func (r *report) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.reasons) < 20 {
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check fails the run with msg unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *report) result() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: r.metrics}
}

// workload is one named benchmark workload: a timed run reporting the
// end-to-end metrics and a traced run reporting the per-layer ones.
type workload struct {
	name   string
	timed  func(ctx context.Context, cfg config, r *report) error
	traced func(ctx context.Context, cfg config, r *report) error
}

var workloadList = []workload{
	{name: "paper-regen", timed: paperRegenTimed, traced: paperRegenTraced},
	{name: "miss-stream", timed: missStreamTimed, traced: missStreamTraced},
	{name: "serve-sweeps", timed: serveSweepsTimed, traced: serveSweepsTraced},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := flag.Int("seconds", 10, "length of the timed section in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	spans := flag.String("spans", "", "span output file of the traced run (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || *seed == 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1, --seed >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, spans: *spans}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := newReport()
	run := w.timed
	if *trace == 1 {
		run = w.traced
	}
	heap := startHeapSampler()
	err = run(ctx, cfg, r)
	peak := heap.peakMB()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(2)
	}
	if *trace == 0 {
		r.set("heap_peak_mb", peak, "MB")
		setOK(r)
	}
	res := r.result()
	for _, reason := range r.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", reason)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so slow repetitions do not move it.
const setupReps = 21

// measureSetup runs fn setupReps times and returns the median seconds.
// Before each repetition the runtime returns all free memory to the OS,
// so every repetition faults its memory in, as a fresh process does.
// Otherwise whether a repetition reuses pages the last one left decides
// its time.
func measureSetup(fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// runtimeStats is one reading of the Go runtime counters the benchmark
// reports.
type runtimeStats struct {
	gcCPU    float64 // CPU seconds spent in GC
	totalCPU float64 // CPU seconds available to the process
	gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeStats{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// heapSampler tracks the peak Go heap in use: the live heap the garbage
// collector marked, sampled every few milliseconds. Unlike the heap
// size, it does not depend on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// timedSection brackets the measured part of a timed run and derives the
// end-to-end metrics every workload shares.
type timedSection struct {
	start  time.Time
	allocs uint64
}

// mallocs returns the exact count of heap allocations so far; unlike
// runtime/metrics it flushes the per-P caches first.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func beginTimed() timedSection {
	return timedSection{allocs: mallocs(), start: time.Now()}
}

// finish records cells_per_s, allocs_per_cell and accesses_per_s for a
// section that completed cells cells and simulated accesses accesses.
func (t timedSection) finish(r *report, cells int, accesses int64) {
	secs := time.Since(t.start).Seconds()
	allocs := mallocs() - t.allocs
	if cells < 1 {
		cells = 1
	}
	r.set("cells_per_s", float64(cells)/secs, "1/s")
	r.set("accesses_per_s", float64(accesses)/secs, "1/s")
	r.set("allocs_per_cell", float64(allocs)/float64(cells), "count")
	fmt.Fprintf(os.Stderr, "perfbench: timed %.2fs, %d cells, %d accesses\n", secs, cells, accesses)
}

// setOK records cell_ok_frac from the report's counts.
func setOK(r *report) {
	res := r.result()
	r.set("cell_ok_frac", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
}

// latencyWindow is the least number of samples a latency percentile is
// taken over, so every p90 has ten samples above it.
const latencyWindow = 100

// setLatencies records <prefix>_p50 and <prefix>_p90 in ms from samples
// in seconds, in completion order. The samples are cut into consecutive
// windows of at least latencyWindow, and each metric is the median of
// the windows' percentiles: a host slowdown lasting a few seconds then
// moves only the windows it covers, not the whole tail.
func setLatencies(r *report, prefix string, secs []float64) {
	n := max(len(secs)/latencyWindow, 1)
	var p50, p90 []float64
	for w := 0; w < n; w++ {
		win := secs[w*len(secs)/n : (w+1)*len(secs)/n]
		p50 = append(p50, quantile(win, 0.5)*1e3)
		p90 = append(p90, quantile(win, 0.9)*1e3)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s over %d samples in %d windows\n", prefix, len(secs), n)
	r.set(prefix+"_p50", median(p50), "ms")
	r.set(prefix+"_p90", median(p90), "ms")
}

// setRuntimeLayer records the runtime.* per-layer metrics between two
// readings.
func setRuntimeLayer(r *report, a, b runtimeStats) {
	r.setLayer("runtime.gc_cpu_frac", (b.gcCPU-a.gcCPU)/math.Max(b.totalCPU-a.totalCPU, 1e-9))
	r.setLayer("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles))
}
