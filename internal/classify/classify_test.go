package classify

import (
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestFromRatioBins(t *testing.T) {
	cases := []struct {
		ratio float64
		want  workload.Class
	}{
		{0.0, workload.Linear},
		{0.5, workload.Linear},
		{0.699, workload.Linear},
		{0.7, workload.Logarithmic}, // boundary is inclusive for log
		{0.85, workload.Logarithmic},
		{0.999, workload.Logarithmic},
		{1.0, workload.Parabolic}, // boundary inclusive for parabolic
		{1.5, workload.Parabolic},
		{3.0, workload.Parabolic},
	}
	for _, c := range cases {
		if got := FromRatio(c.ratio); got != c.want {
			t.Errorf("FromRatio(%v) = %v, want %v", c.ratio, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	// Perf = 1/time, so ratio = timeAll/timeHalf.
	if got := Ratio(10, 7); got != 0.7 {
		t.Errorf("Ratio(10,7) = %v, want 0.7", got)
	}
	if got := Ratio(0, 5); got != 0 {
		t.Errorf("Ratio with zero half time = %v, want 0", got)
	}
}

func TestClassificationTotal(t *testing.T) {
	// Every non-negative ratio maps to exactly one of the three classes.
	f := func(r float64) bool {
		if r < 0 {
			r = -r
		}
		c := FromRatio(r)
		return c == workload.Linear || c == workload.Logarithmic || c == workload.Parabolic
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdConstants(t *testing.T) {
	// The paper's thresholds are load-bearing; lock them down.
	if LinearMax != 0.7 {
		t.Errorf("LinearMax = %v, want 0.7", LinearMax)
	}
	if LogarithmicMax != 1.0 {
		t.Errorf("LogarithmicMax = %v, want 1.0", LogarithmicMax)
	}
}

func TestFromRatioWith(t *testing.T) {
	// Custom thresholds shift the bins.
	if got := FromRatioWith(0.75, 0.8, 1.0); got != workload.Linear {
		t.Errorf("ratio 0.75 with linMax 0.8 = %v, want linear", got)
	}
	if got := FromRatioWith(0.75, 0.6, 1.0); got != workload.Logarithmic {
		t.Errorf("ratio 0.75 with linMax 0.6 = %v, want logarithmic", got)
	}
	// Default thresholds must match FromRatio.
	for _, r := range []float64{0.1, 0.69, 0.7, 0.99, 1.0, 1.5} {
		if FromRatioWith(r, LinearMax, LogarithmicMax) != FromRatio(r) {
			t.Errorf("FromRatioWith defaults diverge at %v", r)
		}
	}
}
