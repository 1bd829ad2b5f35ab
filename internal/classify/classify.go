// Package classify implements the paper's scalability-trend
// classification (§III-A1): compare performance with all cores against
// performance with half the cores and bin the ratio.
//
//	Perf_half/Perf_all < 0.7          -> linear
//	0.7 <= Perf_half/Perf_all < 1.0   -> logarithmic
//	Perf_half/Perf_all >= 1.0         -> parabolic
package classify

import "repro/internal/workload"

// Thresholds of the paper's classification rule.
const (
	// LinearMax is the exclusive upper bound of the linear bin.
	LinearMax = 0.7
	// LogarithmicMax is the exclusive upper bound of the logarithmic bin.
	LogarithmicMax = 1.0
)

// Ratio computes Perf_half/Perf_all from the two profile runtimes.
// Performance is reciprocal runtime, so the ratio equals
// timeAll/timeHalf.
func Ratio(timeHalf, timeAll float64) float64 {
	if timeHalf <= 0 {
		return 0
	}
	return timeAll / timeHalf
}

// FromRatio bins a Perf_half/Perf_all ratio into a scalability class
// using the paper's thresholds.
func FromRatio(ratio float64) workload.Class {
	return FromRatioWith(ratio, LinearMax, LogarithmicMax)
}

// FromRatioWith bins a ratio with custom thresholds (the threshold
// sensitivity ablation sweeps linMax around the paper's 0.7).
func FromRatioWith(ratio, linMax, logMax float64) workload.Class {
	switch {
	case ratio < linMax:
		return workload.Linear
	case ratio < logMax:
		return workload.Logarithmic
	default:
		return workload.Parabolic
	}
}
