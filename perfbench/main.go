// Command perfbench is the simulator's benchmark: four workloads driven
// through the public entry points core.Run, fleet.Run and the serve
// HTTP API, with end-to-end metrics from an untraced run and per-layer
// metrics from separate traced passes. See README.md.
//
// Usage:
//
//	perfbench --workload <name> [--seed N|default|heldout] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any unit failed or any simulated digest disagreed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSeed is the workload seed used when --seed is not given.
// HeldOutSeed is a second seed kept out of day-to-day tuning, so a
// claimed gain can be re-checked on inputs the change was not tuned on.
const (
	DefaultSeed uint64 = 20150525
	HeldOutSeed uint64 = 1406390
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 15

// unit is the outcome of one unit of work: one cluster simulation, or
// one request in serve-mixed.
type unit struct {
	key    string // input and engine; a repeated key must repeat its digest
	pair   string // input without engine: HadoopV1 and SMapReduce runs of one pair share inputs
	engine string
	host   time.Duration
	simS   float64   // simulated seconds until the last job finished
	jobLat []float64 // per-job latency, simulated seconds
	digest string
	err    error
	req    *requestTiming // serve-mixed only
	aux    bool           // a cross-check run outside the timed configuration
}

// mode selects how a pass is instrumented.
type mode int

const (
	untraced mode = iota
	// passA: CPU profile plus timing decorators on the runtime's hooks.
	passA
	// passB: allocation profile at rate 1, event log, flow tracer and
	// telemetry, for exact per-unit counts.
	passB
)

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs from the seed and runs one warm-up unit.
	setup(seed uint64) error
	// pass runs every input once in mode m and returns the units in a
	// fixed order. In passB it runs a fixed sample of the inputs instead,
	// the same for every run of a seed, so its counts repeat exactly.
	pass(m mode, rec *recorder) []unit
}

var workloads = map[string]func() workload{
	"shuffle-heavy": newShuffleHeavy,
	"map-heavy":     newMapHeavy,
	"tenant-open":   newTenantOpen,
	"serve-mixed":   newServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: shuffle-heavy | map-heavy | tenant-open | serve-mixed")
	seedArg := fs.String("seed", "default", "workload seed: a number, default or heldout")
	seconds := fs.Float64("seconds", 20, "measured seconds (rounded up to whole passes)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload {%s} [--seed N|default|heldout] [--seconds S] [--trace 0|1]\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	seed, err := parseSeed(*seedArg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	w := mk()
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res, err = tracedRun(w, seed, window)
	} else {
		res, err = timedRun(w, seed, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	env := environment()
	info := map[string]any{"workload": *name, "seed": seed, "trace": *traced, "env": env, "notes": res.notes}
	line, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "%s\n", line)
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: failure: %s\n", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), res.metrics}
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(res.failures) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func parseSeed(s string) (uint64, error) {
	switch s {
	case "default":
		return DefaultSeed, nil
	case "heldout":
		return HeldOutSeed, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("--seed %q: want a number, default or heldout", s)
	}
	return v, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	metrics   map[string]metric
	attempted int
	failures  []string
	notes     map[string]any
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failures = append(r.failures, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checker holds the first digest seen for every unit key and counts
// units that failed or disagreed with it.
type checker struct {
	mu        sync.Mutex
	first     map[string]string
	attempted int
	failures  []string
}

func newChecker() *checker { return &checker{first: map[string]string{}} }

// check requires every unit to succeed and to repeat the digest of any
// earlier unit with its key, whichever pass or instrumentation ran it.
func (c *checker) check(units []unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range units {
		c.attempted++
		prev, seen := c.first[u.key]
		switch {
		case u.err != nil:
			c.failures = append(c.failures, fmt.Sprintf("%s: %v", u.key, u.err))
		case !seen:
			c.first[u.key] = u.digest
		case prev != u.digest:
			c.failures = append(c.failures, fmt.Sprintf("%s: digest %s, earlier %s", u.key, u.digest, prev))
		}
	}
}

// timedRun measures set-up, then runs whole passes for at least the
// window with tracing off and derives the end-to-end metrics.
func timedRun(w workload, seed uint64, window time.Duration) (result, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if err := w.setup(seed); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	chk := newChecker()
	ms0 := newMemSampler()
	peak := startHeapSampler()
	runtime.GC()
	obj0, bytes0, _ := ms0.read()
	start := time.Now()
	var units []unit
	passes := 0
	var passPeaks []float64
	for passes == 0 || time.Since(start) < window {
		u := w.pass(untraced, nil)
		passPeaks = append(passPeaks, float64(peak.cut()))
		chk.check(u)
		units = append(units, u...)
		passes++
	}
	wall := time.Since(start)
	obj1, bytes1, _ := ms0.read()
	peak.stop()

	res := result{metrics: map[string]metric{}, attempted: chk.attempted, failures: chk.failures}
	n := float64(len(units))
	simS := 0.0
	for _, u := range units {
		simS += u.simS
	}
	host := hostTimes(units)
	tailP := tailPercentile(len(host))
	res.set("setup_s", median(setups), "s")
	res.set("run_ms.p50", median(host), "ms")
	res.set("run_ms.tail", percentile(host, tailP), "ms")
	res.set("runs_per_s", n/wall.Seconds(), "1/s")
	res.set("sim_s_per_host_s", simS/wall.Seconds(), "s/s")
	res.set("allocs_per_run", float64(obj1-obj0)/n, "count")
	res.set("alloc_mb_per_run", float64(bytes1-bytes0)/n/(1<<20), "MB")
	res.set("peak_heap_mb", median(passPeaks)/(1<<20), "MB")
	firstPass := units[:len(units)/passes]
	p50, tail, gain := simulated(firstPass)
	res.set("sim_job_p50_s", p50, "s")
	res.set("sim_job_tail_s", tail, "s")
	res.set("sim_smr_gain", gain, "ratio")
	res.notes = map[string]any{
		"units": len(units), "passes": passes, "wall_s": wall.Seconds(),
		"tail_percentile": tailP, "tail_samples": len(host), "setup_s_samples": setups,
		"sim_job_tail_percentile": simTailPercentile,
	}
	return res, nil
}

// simTailPercentile is the percentile reported as sim_job_tail_s. A pass
// holds tens of SMapReduce jobs, too few for the ten-beyond rule used
// for host timings, so the simulated tail is a fixed p90.
const simTailPercentile = 90

// simulated derives the simulated metrics from one pass: SMapReduce's
// per-job latency median and p90, and the ratio of HadoopV1's summed
// job latency to SMapReduce's on the pairs both engines ran.
func simulated(units []unit) (p50, tail, gain float64) {
	var smr []float64
	sums := map[string]map[string]float64{}
	for _, u := range units {
		if u.err != nil {
			continue
		}
		if u.engine == "SMapReduce" {
			smr = append(smr, u.jobLat...)
		}
		if sums[u.pair] == nil {
			sums[u.pair] = map[string]float64{}
		}
		for _, l := range u.jobLat {
			sums[u.pair][u.engine] += l
		}
	}
	var v1, sm float64
	for _, s := range sums {
		a, okA := s["HadoopV1"]
		b, okB := s["SMapReduce"]
		if okA && okB {
			v1 += a
			sm += b
		}
	}
	gain = math.NaN()
	if sm > 0 {
		gain = v1 / sm
	}
	return median(smr), percentile(smr, simTailPercentile), gain
}

// heapSampler tracks the peak live heap (as of the last collection),
// sampled every few milliseconds on its own goroutine.
type heapSampler struct {
	peak  atomic.Uint64
	local *memSampler // for cut, on the caller's goroutine
	stopc chan struct{}
	done  chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{local: newMemSampler(), stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		m := newMemSampler()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			_, _, heap := m.read()
			h.raise(heap)
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) raise(v uint64) {
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// cut returns the peak since the previous cut and starts a new period.
func (h *heapSampler) cut() uint64 {
	_, _, heap := h.local.read()
	h.raise(heap)
	return h.peak.Swap(0)
}

func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// environment records what the numbers were measured on, so a result
// from a one-core box cannot be mistaken for a scaling result. The
// commit comes from the build's VCS stamp; it is "unknown" when the
// sources were built outside a git checkout.
func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
