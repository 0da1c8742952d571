package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"smapreduce/internal/core"
	"smapreduce/internal/mr"
	"smapreduce/internal/puma"
	"smapreduce/internal/telemetry"
	"smapreduce/internal/trace"
)

// Input sizes span 20–80 GB in sizeStrata equal strata per (profile,
// reducer count), one seeded draw per stratum, so every seed covers the
// range evenly and a pass's cost varies little between seeds.
const (
	minInputGB = 20
	maxInputGB = 80
	sizeStrata = 8
)

// jobInput is one seeded job of the single-job workloads.
type jobInput struct {
	bench   string
	gb      float64
	reduces int
	seed    uint64 // cluster seed: task-cost noise and DFS layout
}

// jobWorkload runs every input once on each of the paper's three
// engines, one after another, each on fresh substrate through core.Run.
type jobWorkload struct {
	benches []string
	reduces []int
	inputs  []jobInput
}

// newShuffleHeavy: reduce-heavy PUMA profiles with 30 or 60 reducers,
// where shuffle bookkeeping and fabric water-filling do their work.
func newShuffleHeavy() workload {
	return &jobWorkload{
		benches: []string{"terasort", "inverted-index", "self-join", "adjacency-list"},
		reduces: []int{30, 60},
	}
}

// newMapHeavy: map-heavy profiles with one or two reducers, where the
// CPU thrashing model, DFS locality and map scheduling do the work and
// the shuffle does little.
func newMapHeavy() workload {
	return &jobWorkload{
		benches: []string{"grep", "histogram-ratings", "histogram-movies", "classification"},
		reduces: []int{1, 2},
	}
}

func (w *jobWorkload) setup(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0x6a6f62))
	w.inputs = w.inputs[:0]
	for _, b := range w.benches {
		if _, err := puma.Get(b); err != nil {
			return err
		}
		for _, red := range w.reduces {
			for k := 0; k < sizeStrata; k++ {
				gb := minInputGB + (maxInputGB-minInputGB)*(float64(k)+r.Float64())/sizeStrata
				w.inputs = append(w.inputs, jobInput{bench: b, gb: math.Round(gb*100) / 100, reduces: red, seed: r.Uint64()})
			}
		}
	}
	// Warm-up: fixed jobs, the same for every seed, so that set-up time
	// measures the same work whatever the inputs: the first profile at
	// the smallest, middle and largest size on every engine.
	for _, gb := range []float64{minInputGB, (minInputGB + maxInputGB) / 2, maxInputGB} {
		warm := jobInput{bench: w.benches[0], gb: gb, reduces: w.reduces[0], seed: 1}
		for _, e := range core.Engines() {
			if err := runJob(unit{}, warm, e, untraced, nil).err; err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *jobWorkload) pass(m mode, rec *recorder) []unit {
	var out []unit
	for i := range w.inputs {
		// passB samples the middle size stratum of every (profile,
		// reducer count): all profiles, a tenth of the cost.
		if m == passB && i%sizeStrata != sizeStrata/2 {
			continue
		}
		for _, e := range core.Engines() {
			out = append(out, w.runOne(i, e, m, rec))
		}
	}
	return out
}

// runOne simulates input i on engine e.
func (w *jobWorkload) runOne(i int, e core.Engine, m mode, rec *recorder) unit {
	u := unit{key: fmt.Sprintf("%d/%s", i, e), pair: fmt.Sprint(i), engine: e.String()}
	return runJob(u, w.inputs[i], e, m, rec)
}

// runJob simulates one job on engine e on fresh substrate.
func runJob(u unit, in jobInput, e core.Engine, m mode, rec *recorder) unit {
	cfg := mr.DefaultConfig()
	cfg.Seed = in.seed
	spec := mr.JobSpec{
		Name:    in.bench,
		Profile: puma.MustGet(in.bench),
		InputMB: in.gb * 1024,
		Reduces: in.reduces,
	}
	return runCore(u, e, core.Options{Cluster: cfg}, m, rec, spec)
}

// runCore runs one simulation through core.Run and fills u from it. In
// passA a timing decorator replaces the SMapReduce slot manager; in
// passB the run carries the event log, a tracer recording every flow
// and a telemetry collector, which rec keeps to count after its closing
// allocation snapshot.
func runCore(u unit, e core.Engine, opts core.Options, m mode, rec *recorder, specs ...mr.JobSpec) unit {
	var ctrl *timedController
	if m == passA && e == core.EngineSMapReduce {
		opts.Prepare = func(c *mr.Cluster) error {
			var err error
			ctrl, err = newTimedController(rec)
			if err != nil {
				return err
			}
			return c.SetController(ctrl)
		}
	}
	var tr *trace.Tracer
	var col *telemetry.Collector
	if m == passB {
		tr = trace.New(trace.Options{Verbosity: trace.VerbosityAllFlows})
		col = telemetry.NewCollector(0)
		opts.Events, opts.Tracer, opts.Telemetry = true, tr, col
	}

	start := time.Now()
	res, err := core.Run(e, opts, specs...)
	u.host = time.Since(start)
	if err != nil {
		u.err = err
		return u
	}
	decisions := len(res.Decisions)
	if ctrl != nil {
		decisions = ctrl.finish()
	}
	u.simS, u.jobLat, u.digest, u.err = summarize(res.Jobs, decisions)
	if m == passB && u.err == nil {
		rec.keep(res, tr, col)
	}
	return u
}

// summarize checks that every job finished with ordered milestones and
// returns the run's makespan, per-job latencies and its digest: each
// job's Submitted/Started/BarrierAt/FinishedAt bits and ShuffledMB,
// then the slot-manager decision count.
func summarize(jobs []*mr.Job, decisions int) (last float64, lat []float64, sum string, err error) {
	var d digest
	lat = make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if !j.Finished() {
			return 0, nil, "", fmt.Errorf("job %s did not finish", j.Spec.Name)
		}
		if !(j.Submitted <= j.Started && j.Started <= j.BarrierAt && j.BarrierAt <= j.FinishedAt) {
			return 0, nil, "", fmt.Errorf("job %s milestones out of order: %v %v %v %v",
				j.Spec.Name, j.Submitted, j.Started, j.BarrierAt, j.FinishedAt)
		}
		for _, v := range []float64{j.Submitted, j.Started, j.BarrierAt, j.FinishedAt, j.ShuffledMB} {
			d.float(v)
		}
		lat = append(lat, j.ExecutionTime())
		last = math.Max(last, j.FinishedAt)
	}
	d.int(decisions)
	return last, lat, d.sum(), nil
}
