package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/core"
	"smapreduce/internal/fleet"
	"smapreduce/internal/mr"
	"smapreduce/internal/policy"
	"smapreduce/internal/sim"
)

// tenantCell is one offered load of the shoot-out mix, the engines run
// on it and the number of tenant clusters each engine runs. Each cluster
// draws its own arrival stream, so a larger fleet averages out how much
// work one seed's streams happen to hold.
type tenantCell struct {
	load     float64
	clusters int
	engines  []core.Engine
}

// tenantCells runs SMapReduce at load 1 only. At load 4 it collapses,
// and how far depends on the stream: its p50 job latency ranged 1.5x
// between seeds even over 32 clusters, and its host time per cluster
// with it, which no bound could hold. Load 1 shows the same loss to
// HadoopV1 in a stable regime.
var tenantCells = []tenantCell{
	{load: 1, clusters: 192, engines: []core.Engine{core.EngineHadoopV1, core.EngineSMapReduce, core.EngineFairShare}},
	{load: 4, clusters: 32, engines: []core.Engine{core.EngineHadoopV1, core.EngineFairShare}},
}

// The tenant clusters are the fleet default, the paper's cluster at
// half scale, so job sizes and reducer counts are halved too.
const (
	tenantScale   = 0.5
	tenantReduces = 15
)

// warmClusters is the number of warm-up clusters per worker in set-up.
const warmClusters = 4

// efficiencyClusters is the per-cell fleet size of the workers=1 versus
// nproc comparison in pass A.
const efficiencyClusters = 16

// tenantArrivals is the multi-tenant shoot-out's mix at one offered-load
// multiplier: an SLO-bound analytics tenant, a shuffle-heavy ETL tenant
// and a fixed-cadence service stream.
func tenantArrivals(load float64) arrival.Config {
	const gb = 1024 * tenantScale
	return arrival.Config{
		Horizon:    1800,
		LoadFactor: load,
		Tenants: []arrival.Tenant{
			{Name: "analytics", Benchmarks: []string{"grep", "histogram-ratings"},
				MeanInterarrival: 120, InputMBMin: 2 * gb, InputMBMax: 6 * gb, Reduces: tenantReduces, SLOSeconds: 600},
			{Name: "etl", Benchmarks: []string{"terasort", "inverted-index"},
				MeanInterarrival: 300, InputMBMin: 8 * gb, InputMBMax: 12 * gb, Reduces: tenantReduces},
			{Name: "service", Benchmarks: []string{"wordcount"},
				MeanInterarrival: 240, InputMBMin: gb, InputMBMax: gb, Reduces: tenantReduces, Service: true},
		},
	}
}

var tenantPolicyTenants = []policy.Tenant{
	{Name: "analytics", Weight: 2, Guarantee: 0.3},
	{Name: "etl", Weight: 1, Guarantee: 0.4},
	{Name: "service", Weight: 1, Guarantee: 0.2},
}

// tenantWorkload runs every (cell, engine) pair as one fleet.Run on
// nproc workers with reused substrate. A unit is one tenant cluster;
// the engines of one cell see identical streams.
type tenantWorkload struct {
	workers    int
	fleetSeeds []uint64 // per cell
	fair       mr.CapacityPolicy
}

func newTenantOpen() workload { return &tenantWorkload{workers: runtime.NumCPU()} }

func (w *tenantWorkload) setup(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0x74656e))
	w.fleetSeeds = w.fleetSeeds[:0]
	for _, c := range tenantCells {
		if err := tenantArrivals(c.load).Validate(); err != nil {
			return err
		}
		w.fleetSeeds = append(w.fleetSeeds, r.Uint64())
	}
	fair, err := policy.NewFairShare(policy.Options{Tenants: tenantPolicyTenants})
	if err != nil {
		return err
	}
	w.fair = fair
	// Warm-up: warmClusters clusters per worker of the first cell and
	// engine, on a fixed fleet seed so that set-up measures the same work
	// every time.
	units, _ := w.runFleet(0, 1, tenantCells[0].engines[0], untraced, nil, warmClusters*w.workers, w.workers)
	for _, u := range units {
		if u.err != nil {
			return u.err
		}
	}
	return nil
}

func (w *tenantWorkload) pass(m mode, rec *recorder) []unit {
	if m == passB {
		return w.replayPass(rec)
	}
	var out []unit
	for ci, c := range tenantCells {
		for _, e := range c.engines {
			u, _ := w.runFleet(ci, w.fleetSeeds[ci], e, m, rec, c.clusters, w.workers)
			out = append(out, u...)
		}
	}
	if m == passA {
		out = append(out, w.crossChecks(rec)...)
	}
	return out
}

// crossChecks runs pass A's extra work. Fleet efficiency: a smaller
// fleet per cell at workers=1 and at nproc. Cluster i's seed depends
// only on i, so these clusters repeat the full fleets' first ones and
// their digests must match across worker counts. Slot-manager tick
// timing: fleet.Run offers no hook on the controller, so SMapReduce
// clusters are replayed through core.Run, and their digests must match
// the fleet's too.
func (w *tenantWorkload) crossChecks(rec *recorder) []unit {
	var out []unit
	var serial, parallel time.Duration
	for ci, c := range tenantCells {
		for _, e := range c.engines {
			u, d := w.runFleet(ci, w.fleetSeeds[ci], e, passA, rec, efficiencyClusters, 1)
			out = append(out, u...)
			serial += d
			u, d = w.runFleet(ci, w.fleetSeeds[ci], e, passA, rec, efficiencyClusters, w.workers)
			out = append(out, u...)
			parallel += d
			if e == core.EngineSMapReduce {
				for i := 0; i < w.workers; i++ {
					out = append(out, w.replay(ci, e, i, passA, rec))
				}
			}
		}
	}
	rec.mu.Lock()
	rec.serialWall += serial
	rec.parallelWall += parallel
	rec.parallelWorkers = w.workers
	rec.mu.Unlock()
	for i := range out {
		out[i].aux = true
	}
	return out
}

// runFleet runs engine on cell ci as one fleet with the given fleet seed
// and returns one unit per cluster plus the fleet's wall time.
func (w *tenantWorkload) runFleet(ci int, seed uint64, engine core.Engine, m mode, rec *recorder, clusters, workers int) ([]unit, time.Duration) {
	cell := tenantCells[ci]
	units := make([]unit, clusters)
	starts := make([]time.Time, clusters)
	cfg := fleet.Config{
		Clusters: clusters,
		Workers:  workers,
		Seed:     seed,
		Engine:   engine,
		Cluster:  fleet.DefaultClusterConfig(),
		Arrivals: func(i int, rng *sim.Rand) mr.ArrivalSource {
			starts[i] = time.Now()
			src, err := arrival.New(tenantArrivals(cell.load), rng)
			if err != nil {
				units[i].err = err
				return arrival.FromSpecs(nil)
			}
			if m == passA {
				return timedSource{inner: src, rec: rec}
			}
			return src
		},
		PerCluster: func(o fleet.ClusterOut) {
			u := &units[o.Index]
			u.host = time.Since(starts[o.Index])
			if u.err == nil {
				u.simS, u.jobLat, u.digest, u.err = summarize(o.Result.Jobs, len(o.Result.Decisions))
			}
		},
	}
	if engine == core.EngineFairShare {
		cfg.Capacity = w.fair
		if m == passA {
			cfg.Capacity = timedPolicy{inner: w.fair, rec: rec}
		}
	}
	start := time.Now()
	_, err := fleet.Run(cfg)
	wall := time.Since(start)
	for i := range units {
		units[i] = w.label(units[i], ci, engine, i)
		if err != nil && units[i].err == nil {
			units[i].err = err
		}
	}
	return units, wall
}

// label names cluster i of engine on cell ci.
func (w *tenantWorkload) label(u unit, ci int, engine core.Engine, i int) unit {
	u.pair = fmt.Sprintf("load%g/%d", tenantCells[ci].load, i)
	u.engine = engine.String()
	u.key = u.pair + "/" + u.engine
	return u
}

// replayClusters is how many clusters of each cell passB replays.
const replayClusters = 2

// replayPass replays the first clusters of every cell and engine one by
// one through core.Run with the event log, a flow tracer and telemetry
// attached, which fleet.Config does not offer; each digest must match
// the fleet's.
func (w *tenantWorkload) replayPass(rec *recorder) []unit {
	var out []unit
	for ci, c := range tenantCells {
		for _, e := range c.engines {
			for i := 0; i < replayClusters; i++ {
				out = append(out, w.replay(ci, e, i, passB, rec))
			}
		}
	}
	return out
}

// replay runs cluster i of engine on cell ci directly, with the
// configuration and seeds fleet.Run derives for it.
func (w *tenantWorkload) replay(ci int, engine core.Engine, i int, m mode, rec *recorder) unit {
	seed := fleet.ClusterSeed(w.fleetSeeds[ci], i)
	cfg := fleet.DefaultClusterConfig()
	cfg.Seed = seed
	u := w.label(unit{}, ci, engine, i)
	src, err := arrival.New(tenantArrivals(tenantCells[ci].load), arrival.RNG(seed))
	if err != nil {
		u.err = err
		return u
	}
	opts := core.Options{Cluster: cfg, Arrivals: src}
	if engine == core.EngineFairShare {
		opts.Capacity = w.fair
	}
	return runCore(u, engine, opts, m, rec)
}
