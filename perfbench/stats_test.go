package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// With enough distinct inputs each contributes its median, so one slow
// run of an input does not show; with few inputs every unit counts.
func TestHostTimes(t *testing.T) {
	var many []unit
	for pass := 0; pass < 3; pass++ {
		for k := 0; k < minInputs; k++ {
			d := time.Duration(k+1) * time.Millisecond
			if pass == 1 && k == 0 {
				d = time.Second // a run slowed by the host
			}
			many = append(many, unit{key: fmt.Sprint(k), host: d})
		}
	}
	got := hostTimes(many)
	if len(got) != minInputs {
		t.Fatalf("%d samples from %d inputs", len(got), minInputs)
	}
	for k, v := range got {
		if v != float64(k+1) {
			t.Errorf("input %d: %v ms, want its median %d ms", k, v, k+1)
		}
	}

	few := []unit{{key: "a", host: time.Millisecond}, {key: "a", host: 3 * time.Millisecond}, {key: "b", host: 2 * time.Millisecond}}
	if got, want := hostTimes(few), []float64{1, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("few inputs: %v, want every unit %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{10: 50, 20: 50, 100: 90, 192: 94.79, 200: 95, 5000: 95} {
		if got := tailPercentile(n); math.Abs(got-want) > 0.005 {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
