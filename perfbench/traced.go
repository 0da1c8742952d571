package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// recorder collects what the traced passes measure. Decorators call it
// from fleet workers concurrently, so every method locks.
type recorder struct {
	mu sync.Mutex

	// passA: host time of each call through a decorated interface, µs.
	tickUS, allocateUS, nextUS []float64
	ctrlRuns, decisions        int

	// passA, tenant-open only: wall time of the efficiency fleets at
	// workers=1 and at nproc.
	serialWall, parallelWall time.Duration
	parallelWorkers          int

	// passB: exact counts over countedRuns cluster simulations.
	countedRuns                                   int
	events, attempts, flows, spans, dropped, rows int
	allocsBefore, allocsAfter                     map[[32]uintptr]int64
	kept                                          []keptRun
}

// keptRun is one passB simulation whose counts are read after the
// closing allocation snapshot, so that counting them is not charged to
// the layers.
type keptRun struct {
	res *core.Result
	tr  *trace.Tracer
	col *telemetry.Collector
}

func (r *recorder) add(dst *[]float64, d time.Duration) {
	r.mu.Lock()
	*dst = append(*dst, float64(d)/float64(time.Microsecond))
	r.mu.Unlock()
}

// endAllocs takes the closing allocation snapshot of passB. Workloads
// call it before work that only the benchmark does (fetching artifacts
// to count them); later calls are no-ops.
func (r *recorder) endAllocs() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.allocsAfter == nil {
		runtime.GC()
		runtime.GC()
		r.allocsAfter = allocSamples()
	}
}

// keep holds one passB simulation for countKept.
func (r *recorder) keep(res *core.Result, tr *trace.Tracer, col *telemetry.Collector) {
	r.mu.Lock()
	r.kept = append(r.kept, keptRun{res, tr, col})
	r.mu.Unlock()
}

// countKept adds the event, attempt, flow, span and telemetry-row
// counts of every kept simulation. It runs after endAllocs.
func (r *recorder) countKept() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range r.kept {
		flows, err := summaryFlows(k.tr.Summary())
		if err != nil {
			return err
		}
		r.countedRuns++
		r.events += len(k.res.Events.Events()) + k.res.Events.Dropped
		r.attempts += len(k.res.Events.Filter(mr.EvTaskStarted)) + len(k.res.Events.Filter(mr.EvSpeculative))
		r.flows += flows
		r.spans += k.tr.Began()
		r.dropped += k.tr.Dropped()
		r.rows += k.col.Ticks()
	}
	r.kept = nil
	return nil
}

// flowCategories are the span categories the mr runtime records on the
// network track, one span per fabric flow.
var flowCategories = map[string]bool{"shuffle": true, "read": true, "repl": true, "flow": true}

// summaryFlows sums the span column of a Tracer.Summary table over the
// flow categories; it allocates far less than a full trace export.
func summaryFlows(summary string) (int, error) {
	n := 0
	for _, line := range strings.Split(summary, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !flowCategories[f[0]] {
			continue
		}
		v, err := strconv.Atoi(f[1])
		if err != nil {
			return 0, fmt.Errorf("trace summary line %q: %w", line, err)
		}
		n += v
	}
	return n, nil
}

// timedController decorates the SMapReduce slot manager, timing each
// Tick the runtime makes through the mr.Controller interface.
type timedController struct {
	mgr *core.SlotManager
	rec *recorder
}

func newTimedController(rec *recorder) (*timedController, error) {
	mgr, err := core.NewSlotManager(core.SlotManagerConfig{})
	if err != nil {
		return nil, err
	}
	return &timedController{mgr: mgr, rec: rec}, nil
}

func (t *timedController) Interval() float64 { return t.mgr.Interval() }

func (t *timedController) Tick(c *mr.Cluster) {
	start := time.Now()
	t.mgr.Tick(c)
	t.rec.add(&t.rec.tickUS, time.Since(start))
}

// finish records the decorated run's decision count.
func (t *timedController) finish() int {
	n := len(t.mgr.Decisions())
	t.rec.mu.Lock()
	t.rec.ctrlRuns++
	t.rec.decisions += n
	t.rec.mu.Unlock()
	return n
}

// timedPolicy decorates an mr.CapacityPolicy, timing each Allocate.
type timedPolicy struct {
	inner mr.CapacityPolicy
	rec   *recorder
}

func (p timedPolicy) Name() string      { return p.inner.Name() }
func (p timedPolicy) Interval() float64 { return p.inner.Interval() }

func (p timedPolicy) Allocate(now float64, total int, tenants []mr.TenantSnapshot) []mr.TenantAllocation {
	start := time.Now()
	out := p.inner.Allocate(now, total, tenants)
	p.rec.add(&p.rec.allocateUS, time.Since(start))
	return out
}

// timedSource decorates an mr.ArrivalSource, timing each Next.
type timedSource struct {
	inner mr.ArrivalSource
	rec   *recorder
}

func (s timedSource) Next() (mr.JobSpec, float64, bool) {
	start := time.Now()
	spec, at, ok := s.inner.Next()
	s.rec.add(&s.rec.nextUS, time.Since(start))
	return spec, at, ok
}

// profiledPass runs one pass in passA under the CPU profiler and
// returns its units and samples.
func profiledPass(w workload, rec *recorder) ([]unit, []stackSample, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	units := w.pass(passA, rec)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	return units, samples, err
}

// tracedRun alternates untraced passes with pass A (CPU profile and
// decorators) for two thirds of the window, so drift on the host hits
// both alike, then runs pass B (exact allocation and event counts) over
// a fixed sample of the inputs. Every pass checks its digests against
// the others.
func tracedRun(w workload, seed uint64, window time.Duration) (result, error) {
	if err := w.setup(seed); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	chk := newChecker()
	rec := &recorder{}

	var plain, tracedA []unit
	var cpu []stackSample
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < 2*window/3 {
		u := w.pass(untraced, nil)
		chk.check(u)
		plain = append(plain, u...)
		u, s, err := profiledPass(w, rec)
		if err != nil {
			return result{}, err
		}
		chk.check(u)
		tracedA = append(tracedA, u...)
		cpu = append(cpu, s...)
	}

	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	runtime.GC()
	runtime.GC()
	rec.allocsBefore = allocSamples()
	tracedB := w.pass(passB, rec)
	rec.endAllocs()
	runtime.MemProfileRate = prevRate
	chk.check(tracedB)

	res := result{metrics: map[string]metric{}, attempted: chk.attempted, failures: chk.failures}
	if err := rec.countKept(); err != nil {
		res.failures = append(res.failures, err.Error())
	}
	cpuAttr := attribute(cpu)
	nA := float64(len(tracedA))
	for _, l := range layers {
		res.set("self_ms."+l, float64(cpuAttr.layer[l])/1e6/nA, "ms")
	}
	for _, f := range mrFiles {
		res.set("self_ms.mr."+f, float64(cpuAttr.mr[f])/1e6/nA, "ms")
	}
	allocAttr := attribute(allocDelta(rec.allocsBefore, rec.allocsAfter))
	nB := float64(len(tracedB))
	for _, l := range layers {
		res.set("allocs."+l, float64(allocAttr.layer[l])/nB, "count")
	}
	for _, f := range mrFiles {
		res.set("allocs.mr."+f, float64(allocAttr.mr[f])/nB, "count")
	}

	perRun := func(n, runs int) float64 {
		if runs == 0 {
			return 0
		}
		return float64(n) / float64(runs)
	}
	res.set("core.tick_us.p50", median(rec.tickUS), "us")
	res.set("core.ticks_per_run", perRun(len(rec.tickUS), rec.ctrlRuns), "count")
	res.set("core.decisions_per_run", perRun(rec.decisions, rec.ctrlRuns), "count")
	res.set("policy.allocate_us.p50", median(rec.allocateUS), "us")
	res.set("arrival.next_us.p50", median(rec.nextUS), "us")
	eff := 0.0
	if rec.parallelWall > 0 {
		eff = rec.serialWall.Seconds() / (float64(rec.parallelWorkers) * rec.parallelWall.Seconds())
	}
	res.set("fleet.efficiency", eff, "ratio")

	var accept, stream []float64
	for _, u := range tracedA {
		if r := u.req; r != nil {
			accept = append(accept, ms(r.accept))
			stream = append(stream, ms(r.stream))
		}
	}
	var phases map[string]int64
	if len(accept) > 0 {
		phases = servePhases(cpu)
	}
	res.set("serve.accept_ms.p50", median(accept), "ms")
	res.set("serve.stream_ms.p50", median(stream), "ms")
	for _, p := range []string{"sim", "artifact", "http"} {
		res.set("serve."+p+"_cpu_ms", float64(phases[p])/1e6/nA, "ms")
	}
	res.set("trace_overhead_frac", overhead(plain, tracedA), "ratio")

	res.set("mr.events_per_run", perRun(rec.events, rec.countedRuns), "count")
	res.set("mr.task_attempts_per_run", perRun(rec.attempts, rec.countedRuns), "count")
	res.set("netsim.flows_per_run", perRun(rec.flows, rec.countedRuns), "count")
	res.set("trace.spans_per_run", perRun(rec.spans, rec.countedRuns), "count")
	res.set("trace.dropped", float64(rec.dropped), "count")
	res.set("telemetry.rows_per_run", perRun(rec.rows, rec.countedRuns), "count")
	if rec.dropped > 0 {
		res.failures = append(res.failures, fmt.Sprintf("tracer dropped %d events", rec.dropped))
	}

	res.notes = map[string]any{
		"units_untraced": len(plain), "units_pass_a": len(tracedA), "units_pass_b": len(tracedB),
		"counted_runs_pass_b": rec.countedRuns, "cpu_profile_ms": float64(cpuAttr.total) / 1e6,
		"controller_runs": rec.ctrlRuns, "allocs_pass_b": allocAttr.total,
	}
	return res, nil
}

// servePhases splits serve-mixed CPU samples by what the service was
// doing: "artifact" under artifact rendering and the ledger append,
// "sim" under core.Run on a pool worker, "http" on a server connection
// goroutine (intake and event streaming). Client, runtime and GC
// samples fall in none of them.
func servePhases(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		phase := ""
		for _, f := range s.stack {
			switch f.fn {
			case "smapreduce/internal/serve.assembleArtifacts", "smapreduce/internal/serve.(*Server).finishRun":
				phase = "artifact"
			case "smapreduce/internal/core.Run":
				if phase == "" {
					phase = "sim"
				}
			case "net/http.(*conn).serve":
				if phase == "" {
					phase = "http"
				}
			}
		}
		if phase != "" {
			out[phase] += s.weight
		}
	}
	return out
}

// overhead compares pass A's mean host time per unit with the untraced
// run's, over the unit keys both ran.
func overhead(plain, traced []unit) float64 {
	mean := func(us []unit) map[string]float64 {
		sum, n := map[string]float64{}, map[string]float64{}
		for _, u := range us {
			if u.aux {
				continue
			}
			sum[u.key] += u.host.Seconds()
			n[u.key]++
		}
		for k := range sum {
			sum[k] /= n[k]
		}
		return sum
	}
	p, t := mean(plain), mean(traced)
	var sp, st float64
	for k, v := range p {
		if tv, ok := t[k]; ok {
			sp += v
			st += tv
		}
	}
	if sp == 0 {
		return 0
	}
	return st/sp - 1
}
