package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the percentile reported as a timing's tail over n
// samples: the highest one with at least ten samples beyond it, capped
// at p95. The cap keeps the percentile fixed where the sample count
// moves with the program's speed (serve-mixed's requests); elsewhere n
// is the workload's fixed number of inputs. Below 20 samples it falls
// back to the median.
func tailPercentile(n int) float64 {
	switch {
	case n >= 200:
		return 95
	case n >= 20:
		return 100 * (1 - 10/float64(n))
	}
	return 50
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// minInputs is the number of distinct inputs from which host timings
// are taken over per-input medians.
const minInputs = 20

// hostTimes returns the host times, in ms, that run_ms.p50 and
// run_ms.tail are taken over. With at least minInputs distinct unit
// keys each key contributes the median of its units, so a unit slowed
// by the host (a preemption, a neighbour's burst) moves neither figure
// unless it slows most runs of one input. With fewer keys, as in
// serve-mixed, every unit counts on its own.
func hostTimes(units []unit) []float64 {
	byKey := map[string][]float64{}
	var keys []string
	for _, u := range units {
		if _, ok := byKey[u.key]; !ok {
			keys = append(keys, u.key)
		}
		byKey[u.key] = append(byKey[u.key], ms(u.host))
	}
	var out []float64
	if len(keys) < minInputs {
		for _, u := range units {
			out = append(out, ms(u.host))
		}
		return out
	}
	for _, k := range keys {
		out = append(out, median(byKey[k]))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest folds float64 bit patterns and counts into a short stable hash.
type digest struct{ buf []byte }

func (d *digest) float(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *digest) int(v int) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:12])
}

// memSampler reads cumulative allocation counters and the live heap
// from runtime/metrics, which does not stop the world.
type memSampler struct {
	samples []metrics.Sample
}

func newMemSampler() *memSampler {
	return &memSampler{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// read returns cumulative allocated objects and bytes, and the live
// heap as marked by the last garbage collection.
func (m *memSampler) read() (objects, bytes, heap uint64) {
	metrics.Read(m.samples)
	return m.samples[0].Value.Uint64(), m.samples[1].Value.Uint64(), m.samples[2].Value.Uint64()
}
