// Package profile implements the paper's smart profiling module
// (§IV-B1): it executes at most three short sample configurations of an
// application on one node and distils everything the recommendation
// modules need — affinity preference, scalability class, hardware-event
// features, per-iteration work estimates, and the acceptable power
// range.
//
// Sample 1 runs all cores compact and measures memory bandwidth and
// cross-NUMA intensity to pick the core affinity. Sample 2 runs half
// the cores under that affinity; the performance ratio classifies the
// scalability trend (Table I event 7). Sample 3, for non-linear
// applications, runs at the predicted inflection point to anchor the
// piecewise performance model.
package profile

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ScatterBWThreshold is the fraction of one socket's peak bandwidth
// above which the all-core probe marks the application memory-hungry,
// selecting scatter affinity so half-core runs keep both memory
// controllers.
const ScatterBWThreshold = 0.6

// Sample records one profiled configuration.
type Sample struct {
	Cores    int
	Affinity workload.Affinity
	Freq     float64
	IterTime float64 // seconds per iteration
	CPUPower float64 // watts
	MemPower float64 // watts
	MemBW    float64 // GB/s achieved
	Events   sim.Events
}

// Profile is the knowledge-database record for one application on one
// node type — the output of smart profiling.
type Profile struct {
	App       string
	NodeCores int
	Affinity  workload.Affinity
	Ratio     float64 // Perf_half / Perf_all (Table I event 7)
	Class     workload.Class

	All  Sample  // sample 1: all cores
	Half Sample  // sample 2: half cores
	NP   *Sample // sample 3: predicted inflection point (non-linear only)

	// PredictedNP is the inflection point the regression predicted
	// (0 until a predictor ran; all cores for linear applications).
	PredictedNP int

	// BytesPerIter is the DRAM traffic estimate per iteration in GB,
	// derived from event counters of the all-core sample.
	BytesPerIter float64
}

// Features returns the regression feature vector: the Table I event
// rates of the all-core sample (events 0-6) plus the full/half
// performance ratio (event 7).
func (p *Profile) Features() []float64 {
	return append(p.All.Events.Rates(), p.Ratio)
}

// NPPredictor predicts the inflection point from a profile feature
// vector; implemented by perfmodel's trained regression.
type NPPredictor interface {
	PredictNP(features []float64) (int, error)
}

// Profiler runs smart profiling against a cluster (its first node).
type Profiler struct {
	Cluster *hw.Cluster
	// Iterations overrides the application's ProfileIterations when > 0.
	Iterations int
}

// Telemetry handles: how many short sample runs and full
// smart-profiling passes the run performed (the paper's ≤3-sample
// overhead argument, Fig. 5, becomes checkable from metrics).
var (
	mSampleRuns = telemetry.Default.Counter("clip_profile_sample_runs_total",
		"short profiling sample executions")
	mFullProfiles = telemetry.Default.Counter("clip_profiling_passes_total",
		"complete smart-profiling passes (Profiler.Full)")
)

// sample executes one profile configuration on node 0, uncapped
// (profiling runs "with sufficient power", §IV-B1).
func (pr *Profiler) sample(app *workload.Spec, cores int, aff workload.Affinity) (Sample, error) {
	mSampleRuns.Inc()
	iters := app.ProfileIterations
	if pr.Iterations > 0 {
		iters = pr.Iterations
	}
	if iters <= 0 {
		iters = 3
	}
	res, err := sim.Run(pr.Cluster, app, sim.Config{
		Nodes: 1, CoresPerNode: cores, Affinity: aff, MaxIterations: iters,
	})
	if err != nil {
		return Sample{}, fmt.Errorf("profile %s @%d cores: %w", app.Name, cores, err)
	}
	nr := res.Nodes[0]
	return Sample{
		Cores: cores, Affinity: aff, Freq: nr.Freq,
		IterTime: res.IterTime, CPUPower: nr.CPUPower, MemPower: nr.MemPower,
		MemBW: nr.MemBW, Events: res.Events,
	}, nil
}

// Basic runs samples 1 and 2 (affinity probe + classification) and
// returns a profile without the inflection-point sample.
func (pr *Profiler) Basic(app *workload.Spec) (*Profile, error) {
	spec := pr.Cluster.Spec()
	cores := spec.Cores()

	all, err := pr.sample(app, cores, workload.Compact)
	if err != nil {
		return nil, err
	}
	aff := workload.Compact
	if all.MemBW > ScatterBWThreshold*spec.SocketMemBW {
		aff = workload.Scatter
		// Re-measure the all-core sample under the chosen mapping so
		// the knowledge base reflects the execution configuration.
		if all, err = pr.sample(app, cores, aff); err != nil {
			return nil, err
		}
	}
	half, err := pr.sample(app, cores/2, aff)
	if err != nil {
		return nil, err
	}

	ratio := classify.Ratio(half.IterTime, all.IterTime)
	p := &Profile{
		App: app.Name, NodeCores: cores, Affinity: aff,
		Ratio: ratio, Class: classify.FromRatio(ratio),
		All: all, Half: half,
	}
	iters := float64(app.ProfileIterations)
	if pr.Iterations > 0 {
		iters = float64(pr.Iterations)
	}
	if iters > 0 {
		p.BytesPerIter = (all.Events.MemReadBytes + all.Events.MemWriteBytes) / iters / 1e9
	}
	return p, nil
}

// Full runs the complete smart-profiling flow: Basic plus, for
// non-linear classes, the third sample at the predicted inflection
// point (floored to even, paper §V-B2).
func (pr *Profiler) Full(app *workload.Spec, pred NPPredictor) (*Profile, error) {
	mFullProfiles.Inc()
	p, err := pr.Basic(app)
	if err != nil {
		return nil, err
	}
	if p.Class == workload.Linear {
		p.PredictedNP = p.NodeCores
		return p, nil
	}
	if pred == nil {
		return nil, fmt.Errorf("profile %s: non-linear class %v needs an NP predictor", app.Name, p.Class)
	}
	np, err := pred.PredictNP(p.Features())
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", app.Name, err)
	}
	np = ClampNP(np, p.NodeCores)
	p.PredictedNP = np
	s, err := pr.sample(app, np, p.Affinity)
	if err != nil {
		return nil, err
	}
	p.NP = &s
	return p, nil
}

// ClampNP floors a predicted inflection point to an even core count
// within [2, cores]. The paper floors to even because "applications
// perform worse with an odd-value concurrency than with a close
// even-value concurrency".
func ClampNP(np, cores int) int {
	if np%2 == 1 {
		np--
	}
	if np < 2 {
		np = 2
	}
	if np > cores {
		np = cores
	}
	return np
}
