package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Every workload, in both modes, prints exactly the metrics
// BENCHMARK.json declares for that mode, with their units, and passes
// its correctness gate.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, name := range names {
		if testing.Short() && (name == "tenant-open" || name == "shuffle-heavy") {
			continue
		}
		for traced, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "heldout", "--seconds", "0.01", "--trace", []string{"0", "1"}[traced]}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case traced == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "map-heavy", "--seed", "x"},
		{"--workload", "map-heavy", "--trace", "2"},
		{"--workload", "map-heavy", "--seconds", "0"},
		{"--workload", "map-heavy", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, stdout.String())
		}
	}
}

func TestParseSeed(t *testing.T) {
	for in, want := range map[string]uint64{"default": DefaultSeed, "heldout": HeldOutSeed, "7": 7} {
		if got, err := parseSeed(in); err != nil || got != want {
			t.Errorf("parseSeed(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}
