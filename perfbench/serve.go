package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"smapreduce/internal/arrival"
	"smapreduce/internal/cli"
	"smapreduce/internal/serve"
	"smapreduce/internal/trace"
)

// requestTiming is one serve-mixed request as seen by its client.
type requestTiming struct {
	runID string
	// accept is the POST /runs round trip.
	accept time.Duration
	// stream runs from the POST response to the terminal "done" event:
	// queueing, simulation, artifact rendering, the ledger append and
	// event delivery. The run usually finishes before the client has
	// subscribed, so the client cannot split it; the CPU profile does.
	stream time.Duration
}

// scenario is one POST /runs body of the mix.
type scenario struct {
	key, pair, engine string
	body              []byte
}

// scenarioStats is what a scenario's stats.json artifact says about it.
type scenarioStats struct {
	simS      float64
	jobLat    []float64
	decisions int
}

// warmRequests is the number of warm-up requests per client in set-up.
const warmRequests = 4

// serveWorkload drives an in-process serve.Server on loopback with
// nproc closed-loop clients. The server keeps every finished run's
// artifacts in memory, so each round starts a fresh server and shuts
// it down, which bounds memory by the round size.
type serveWorkload struct {
	clients   int
	scenarios []scenario
	transport *http.Transport
	client    *http.Client
	stats     map[string]scenarioStats
	rounds    int // rounds run since set-up; sets the clients' starting points
}

func newServeMixed() workload {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true}
	return &serveWorkload{clients: n, transport: tr, client: &http.Client{Transport: tr}}
}

// setup draws the scenario mix: fixed jobs and an open arrival stream,
// with and without chaos, at trace verbosity 0, shuffle flows and all
// flows. Every fixed-job scenario runs on HadoopV1 and SMapReduce with
// identical inputs; the arrival scenario adds FairShare. The seed moves
// input sizes within narrow bands and the cluster seeds; the arrival
// scenario's two tenants submit at fixed cadences, so the mix's cost
// barely depends on the seed. Its eight small grep jobs are the majority
// of SMapReduce's jobs, which keeps sim_job_p50_s inside one group of
// like jobs rather than on the edge between two.
func (w *serveWorkload) setup(seed uint64) error {
	r := rand.New(rand.NewPCG(seed, 0x737276))
	gb := func(lo, hi float64) float64 { return float64(int((lo+(hi-lo)*r.Float64())*100)) / 100 }
	type base struct {
		name    string
		doc     map[string]any
		engines []string
	}
	pair := []string{"hadoopv1", "smapreduce"}
	bases := []base{
		{"terasort", map[string]any{
			"jobs": []map[string]any{{"bench": "terasort", "input_gb": gb(4, 5), "reduces": 8}},
		}, pair},
		{"grep-chaos", map[string]any{
			"jobs":            []map[string]any{{"bench": "grep", "input_gb": gb(4, 5), "reduces": 4}},
			"chaos":           "crash tt3 @20; rejoin tt3 @60",
			"trace_verbosity": trace.VerbosityFlows,
		}, pair},
		{"two-jobs", map[string]any{
			"jobs": []map[string]any{
				{"bench": "wordcount", "input_gb": gb(2, 2.5), "reduces": 4},
				{"bench": "inverted-index", "input_gb": gb(2, 2.5), "reduces": 8, "submit_at": 30},
			},
			"trace_verbosity": trace.VerbosityAllFlows,
		}, pair},
		{"arrivals", map[string]any{
			"arrivals": arrival.Config{MaxJobs: 10, Tenants: []arrival.Tenant{
				{Name: "analytics", Benchmarks: []string{"grep"}, Service: true, MaxJobs: 8,
					MeanInterarrival: 60, InputMBMin: 768, InputMBMax: 768, Reduces: 4, SLOSeconds: 300},
				{Name: "etl", Benchmarks: []string{"terasort"}, Service: true, MaxJobs: 2,
					MeanInterarrival: 240, InputMBMin: 1536, InputMBMax: 1536, Reduces: 4},
			}},
		}, []string{"hadoopv1", "smapreduce", "fairshare"}},
	}
	w.scenarios = w.scenarios[:0]
	for _, b := range bases {
		b.doc["seed"] = 1 + r.Uint64()%1_000_000_000
		b.doc["workers"] = 8
		for _, e := range b.engines {
			b.doc["engine"] = e
			body, err := json.Marshal(b.doc)
			if err != nil {
				return err
			}
			sc, err := serve.ParseScenario(body)
			if err != nil {
				return err
			}
			engine, err := cli.ParseEngine(sc.Engine)
			if err != nil {
				return err
			}
			w.scenarios = append(w.scenarios, scenario{key: b.name + "/" + e, pair: b.name, engine: engine.String(), body: body})
		}
	}
	w.stats = map[string]scenarioStats{}
	w.rounds = 0
	// Warm-up: a round of warmRequests fixed requests per client, the
	// same for every seed.
	warm := scenario{key: "warm-up", body: []byte(`{"engine":"hadoopv1","seed":1,"workers":8,"jobs":[{"bench":"terasort","input_gb":4.5,"reduces":8}]}`)}
	lists := make([][]*scenario, w.clients)
	for c := range lists {
		for i := 0; i < warmRequests; i++ {
			lists[c] = append(lists[c], &warm)
		}
	}
	units, err := w.round(lists, untraced, nil)
	if err != nil {
		return err
	}
	for _, u := range units {
		if u.err != nil {
			return u.err
		}
	}
	return nil
}

// pass runs one round. In the timed passes and pass A every client
// runs every scenario once, each client starting at another point of
// the list: the clients do equal work, so the round's end waits for no
// straggler, and every scenario repeats within the round, so its Merkle
// roots are compared. The starting points move by one each round, so
// over a run every scenario overlaps every other. Which runs overlap
// changes their host time: a request's stream and connection handling
// can wait for a processor while simulations occupy all of them. In
// passB the clients share one run of each.
func (w *serveWorkload) pass(m mode, rec *recorder) []unit {
	lists := make([][]*scenario, w.clients)
	n := len(w.scenarios)
	for c := range lists {
		for i := 0; i < n; i++ {
			if m == passB && i%w.clients != c {
				continue
			}
			j := i
			if m != passB {
				j = (i + c*n/w.clients + w.rounds) % n
			}
			lists[c] = append(lists[c], &w.scenarios[j])
		}
	}
	if m != passB {
		w.rounds++
	}
	units, err := w.round(lists, m, rec)
	if err != nil {
		return []unit{{key: "serve round", err: err}}
	}
	if m == passA {
		rec.mu.Lock()
		for _, u := range units {
			if u.engine == "SMapReduce" && u.err == nil {
				rec.ctrlRuns++
				rec.decisions += w.stats[u.key].decisions
			}
		}
		rec.mu.Unlock()
	}
	return units
}

// round starts a server, has client c run lists[c] in order as a closed
// loop, fetches stats.json for scenarios not yet seen, counts artifacts
// in passB, and shuts the server down. The units come back in list
// order.
func (w *serveWorkload) round(lists [][]*scenario, m mode, rec *recorder) ([]unit, error) {
	srv, err := serve.New(serve.Options{Workers: w.clients, Queue: w.clients})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	base := "http://" + srv.Addr()
	perClient := make([][]unit, len(lists))
	var wg sync.WaitGroup
	for c, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sc := range list {
				perClient[c] = append(perClient[c], w.request(base, sc))
			}
		}()
	}
	wg.Wait()
	var units []unit
	for _, us := range perClient {
		units = append(units, us...)
	}
	if m == passB {
		rec.endAllocs()
	}
	for i := range units {
		u := &units[i]
		if u.err != nil {
			continue
		}
		st, ok := w.stats[u.key]
		if !ok {
			if st, err = w.fetchStats(base, u.req.runID); err != nil {
				u.err = err
				continue
			}
			w.stats[u.key] = st
		}
		u.simS, u.jobLat = st.simS, st.jobLat
		if m == passB {
			if err := w.countArtifacts(base, u.req.runID, rec); err != nil {
				u.err = err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = srv.Shutdown(ctx)
	if werr := srv.Wait(); err == nil {
		err = werr
	}
	w.transport.CloseIdleConnections()
	return units, err
}

// request POSTs one scenario and follows its SSE stream to the terminal
// event. The unit's digest is the run's Merkle root.
func (w *serveWorkload) request(base string, sc *scenario) unit {
	u := unit{key: sc.key, pair: sc.pair, engine: sc.engine, req: &requestTiming{}}
	t0 := time.Now()
	var info struct {
		ID string `json:"id"`
	}
	if err := w.call("POST", base+"/runs", sc.body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&info)
	}); err != nil {
		u.err = err
		return u
	}
	accepted := time.Now()
	u.req.runID, u.req.accept = info.ID, accepted.Sub(t0)

	var done time.Time
	err := w.call("GET", base+"/runs/"+info.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				event = name
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			switch event {
			case "done":
				var d struct {
					MerkleRoot string `json:"merkle_root"`
				}
				if err := json.Unmarshal([]byte(data), &d); err != nil || d.MerkleRoot == "" {
					return fmt.Errorf("done event %q", data)
				}
				u.digest, done = d.MerkleRoot, time.Now()
			case "failed":
				return fmt.Errorf("run failed: %s", data)
			}
		}
		return sc.Err()
	})
	u.host = time.Since(t0)
	switch {
	case err != nil:
		u.err = err
	case done.IsZero():
		u.err = fmt.Errorf("run %s: stream ended without a done event", info.ID)
	default:
		u.req.stream = done.Sub(accepted)
	}
	return u
}

// call makes one request, requires the status and hands the body to
// read; the body is drained so the connection can be reused.
func (w *serveWorkload) call(method, url string, body []byte, status int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}

func (w *serveWorkload) get(url string) ([]byte, error) {
	var b []byte
	err := w.call("GET", url, nil, http.StatusOK, func(r io.Reader) (err error) {
		b, err = io.ReadAll(r)
		return err
	})
	return b, err
}

func (w *serveWorkload) fetchStats(base, id string) (scenarioStats, error) {
	b, err := w.get(base + "/runs/" + id + "/stats")
	if err != nil {
		return scenarioStats{}, err
	}
	var doc struct {
		LastFinishS *float64 `json:"last_finish_s"`
		Decisions   int      `json:"decisions"`
		JobDetails  []struct {
			ExecutionS *float64 `json:"execution_s"`
		} `json:"job_details"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return scenarioStats{}, fmt.Errorf("run %s stats: %w", id, err)
	}
	if doc.LastFinishS == nil || len(doc.JobDetails) == 0 {
		return scenarioStats{}, fmt.Errorf("run %s stats: no finished jobs", id)
	}
	st := scenarioStats{simS: *doc.LastFinishS, decisions: doc.Decisions}
	for _, j := range doc.JobDetails {
		if j.ExecutionS == nil {
			return scenarioStats{}, fmt.Errorf("run %s stats: unfinished job", id)
		}
		st.jobLat = append(st.jobLat, *j.ExecutionS)
	}
	return st, nil
}

// countArtifacts reads a finished run's event log, trace and telemetry
// artifacts and adds their counts to rec. The service does not export
// its tracer's drop count, so trace.dropped stays unmeasured here.
func (w *serveWorkload) countArtifacts(base, id string, rec *recorder) error {
	events, err := w.get(base + "/runs/" + id + "/log")
	if err != nil {
		return err
	}
	traceJSON, err := w.get(base + "/runs/" + id + "/trace")
	if err != nil {
		return err
	}
	tel, err := w.get(base + "/runs/" + id + "/telemetry")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceJSON, &doc); err != nil {
		return fmt.Errorf("run %s trace: %w", id, err)
	}
	flows, spans := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "B" {
			spans++
			if e.Pid == trace.PIDNetwork {
				flows++
			}
		}
	}
	nEvents, attempts := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(events), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		nEvents++
		if bytes.Contains(line, []byte(`"kind":"task-started"`)) || bytes.Contains(line, []byte(`"kind":"speculative-launch"`)) {
			attempts++
		}
	}
	rows, first := 0, ""
	for _, line := range bytes.Split(bytes.TrimSpace(tel), []byte("\n")) {
		var row struct {
			Series string `json:"series"`
		}
		if len(line) == 0 || json.Unmarshal(line, &row) != nil {
			continue
		}
		if first == "" {
			first = row.Series
		}
		if row.Series == first {
			rows++
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.countedRuns++
	rec.events += nEvents
	rec.attempts += attempts
	rec.flows += flows
	rec.spans += spans
	rec.rows += rows
	return nil
}
