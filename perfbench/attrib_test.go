package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// Hand-built profile.proto encoding.

func pbKey(b []byte, num, wire int) []byte {
	return binary.AppendUvarint(b, uint64(num)<<3|uint64(wire))
}

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, num, 2), uint64(len(p)))
	return append(b, p...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// testProfile builds a gzipped CPU profile. funcs are (name, file)
// pairs with ids 1..n; locs[i] (id i+1) lists its function ids,
// innermost first; each sample is a location-id stack, innermost first,
// weighing ms milliseconds. Every other sample encodes its location ids
// unpacked, so both encodings are covered.
func testProfile(t *testing.T, funcs [][2]string, locs [][]uint64, samples [][]uint64, ms []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p []byte
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2))
	p = pbBytes(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4))
	for i, s := range samples {
		var sm []byte
		if i%2 == 0 {
			sm = pbPacked(sm, 1, s...)
		} else {
			for _, id := range s {
				sm = pbVarint(sm, 1, id)
			}
		}
		sm = pbPacked(sm, 2, 1, uint64(ms[i]*int64(time.Millisecond)))
		p = pbBytes(p, 2, sm)
	}
	for i, fns := range locs {
		l := pbVarint(nil, 1, uint64(i+1))
		l = pbVarint(l, 3, 0x1000+uint64(i))
		for _, f := range fns {
			l = pbBytes(l, 4, pbVarint(pbVarint(nil, 1, f), 2, 7))
		}
		p = pbBytes(p, 4, l)
	}
	for i, f := range funcs {
		fn := pbVarint(nil, 1, uint64(i+1))
		fn = pbVarint(fn, 2, intern(f[0]))
		fn = pbVarint(fn, 3, intern(f[0]))
		fn = pbVarint(fn, 4, intern(f[1]))
		p = pbBytes(p, 5, fn)
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	p = pbVarint(p, 12, uint64(10*time.Millisecond))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	funcs := [][2]string{
		{"runtime.mallocgc", "/go/src/runtime/malloc.go"},                                  // 1
		{"smapreduce/internal/mr.(*Cluster).startFetch", "/src/internal/mr/tasks.go"},      // 2
		{"smapreduce/internal/netsim.(*Fabric).resolve", "/src/internal/netsim/fabric.go"}, // 3
		{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},                               // 4
		{"main.(*serveWorkload).request", "/src/perfbench/serve.go"},                       // 5
		{"smapreduce/internal/par.ForN.func1", "/src/internal/par/par.go"},                 // 6
		{"smapreduce/internal/serve/ledger.MerkleRoot", "/src/internal/serve/ledger/ledger.go"},
		{"smapreduce/internal/chaos.Schedule.Apply", "/src/internal/chaos/chaos.go"},    // 8
		{"smapreduce/internal/mr.(*TaskTracker).sample", "/src/internal/mr/tracker.go"}, // 9
		{"smapreduce/internal/mr.(*Cluster).Mutate", "/src/internal/mr/fluid.go"},       // 10
		{"smapreduce/internal/mr.(*Job).Report", "/src/internal/mr/report.go"},          // 11
		{"sort.Slice", "/go/src/sort/slice.go"},                                         // 12
		{"smapreduce/internal/sim.(*Clock).Step", "/src/internal/sim/clock.go"},         // 13
	}
	locs := [][]uint64{
		{1},      // 1: mallocgc
		{2},      // 2: startFetch
		{3},      // 3: resolve
		{4},      // 4: GC worker
		{5},      // 5: benchmark client
		{6},      // 6: par worker
		{7},      // 7: ledger
		{8},      // 8: chaos
		{12, 9},  // 9: sort.Slice inlined into the tracker sampler
		{10},     // 10: Mutate
		{11, 13}, // 11: Report inlined into the clock step
		{13},     // 12: clock step
	}
	samples := [][]uint64{
		{1, 2, 12},  // malloc under startFetch under the clock -> mr/tasks
		{3, 2},      // fabric under startFetch -> netsim
		{4},         // no module frame -> gc
		{1, 5},      // malloc under the benchmark -> bench
		{1, 6},      // par -> fleet
		{7, 1},      // ledger -> serve
		{8},         // unlisted internal package -> other
		{9, 10},     // inlined sort in tracker.go beats the fluid.go caller -> mr/tracker
		{11},        // innermost inlined frame wins -> mr/rest
		{1, 99, 12}, // malloc, an unknown location, the clock -> sim
	}
	ms := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	got, err := parseCPUProfile(testProfile(t, funcs, locs, samples, ms))
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(got)
	want := map[string]int64{
		"mr": 10 + 80 + 90, "netsim": 20, "gc": 30, "bench": 40, "fleet": 50,
		"serve": 60, "other": 70, "sim": 100,
	}
	for _, l := range layers {
		if g := a.layer[l]; g != want[l]*int64(time.Millisecond) {
			t.Errorf("layer %s = %v ms, want %v", l, g/int64(time.Millisecond), want[l])
		}
	}
	wantMR := map[string]int64{"tasks": 10, "tracker": 80, "rest": 90}
	for _, f := range mrFiles {
		if g := a.mr[f]; g != wantMR[f]*int64(time.Millisecond) {
			t.Errorf("mr file %s = %v ms, want %v", f, g/int64(time.Millisecond), wantMR[f])
		}
	}
	var sum, sumMR int64
	for _, v := range a.layer {
		sum += v
	}
	for _, v := range a.mr {
		sumMR += v
	}
	if sum != a.total || a.total != 550*int64(time.Millisecond) {
		t.Errorf("buckets sum to %d, total %d, want 550 ms", sum, a.total)
	}
	if sumMR != a.layer["mr"] {
		t.Errorf("mr files sum to %d, mr layer %d", sumMR, a.layer["mr"])
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"smapreduce/internal/mr.(*Cluster).startFetch.func1": "mr",
		"smapreduce/internal/serve/ledger.(*Ledger).Append":  "serve",
		"smapreduce/internal/par.ForNUntil":                  "fleet",
		"smapreduce/internal/stats.(*ExactSum).Add":          "other",
		"smapreduce.Run":            "other",
		"smapreduce/perfbench.burn": "bench",
		"main.main":                 "bench",
		"runtime.mallocgc":          "",
		"net/http.(*conn).serve":    "",
		"smapreducex/internal/mr.f": "",
	} {
		got, _ := layerOf(fn)
		if got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink float64

// burn spins on the CPU for d, accumulating in a local so the race
// detector does not instrument the loop.
func burn(d time.Duration) {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += float64(i) * 1.0000001
		}
	}
	burnSink = x
}

// A real runtime/pprof profile decodes, and the work this package did
// lands in the bench bucket.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.layer["bench"] < a.total/2 {
		t.Errorf("bench bucket %d of %d: the profiled loop was not attributed", a.layer["bench"], a.total)
	}
}

func TestSummaryFlows(t *testing.T) {
	summary := "category            spans  instants     total(s)    mean(s)\n" +
		"job                     2         0        120.0      60.00\n" +
		"read                   40         0         80.0       2.00\n" +
		"shuffle               300         0        900.0       3.00\n" +
		"events=342 dropped=0 open-spans=0\n"
	n, err := summaryFlows(summary)
	if err != nil || n != 340 {
		t.Fatalf("summaryFlows = %d, %v; want 340", n, err)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 75); got != 4 {
		t.Errorf("p75 = %v", got)
	}
	if got := tailPercentile(1000); got != 95 {
		t.Errorf("tail percentile of 1000 = %v, want 95", got)
	}
	if got := tailPercentile(100); got != 90 {
		t.Errorf("tail percentile of 100 = %v, want 90", got)
	}
	if got := tailPercentile(10); got != 50 {
		t.Errorf("tail percentile of 10 = %v, want 50", got)
	}
}
