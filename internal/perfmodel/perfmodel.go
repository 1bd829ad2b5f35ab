// Package perfmodel implements the paper's two-step performance
// prediction (§III-A2): a multivariate linear regression over hardware
// event rates predicts the inflection point NP of non-linear
// applications, and a piecewise-linear model anchored on the profiled
// sample configurations predicts runtime at any target concurrency,
// frequency and memory power level (Equations 1-3).
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hw"
	"repro/internal/mlr"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kneeSlopeFraction defines the ground-truth inflection point for
// logarithmic applications: the last concurrency whose marginal speedup
// is still at least this fraction of the ideal (slope-1) growth.
const kneeSlopeFraction = 0.5

// GroundTruthNP finds an application's actual inflection point on one
// node by exhaustive sweep (the paper's "actual values through an
// exhaustive search"). For parabolic trends it is the concurrency of
// peak performance; for logarithmic trends the knee of the speedup
// curve; for linear applications the full core count.
func GroundTruthNP(cl *hw.Cluster, app *workload.Spec, aff workload.Affinity) (int, error) {
	maxCores := cl.Spec().Cores()
	times, err := sim.SweepCores(cl, app, maxCores, aff, false, power.Budget{})
	if err != nil {
		return 0, err
	}
	return KneeOf(times), nil
}

// KneeOf locates the inflection point of a runtime curve indexed by
// cores-1 (see GroundTruthNP).
func KneeOf(times []float64) int {
	// Peak performance first: if an interior minimum exists the curve
	// is parabolic and the peak is the inflection point.
	best, bestN := times[0], 1
	for i, t := range times {
		if t < best {
			best, bestN = t, i+1
		}
	}
	if bestN < len(times) {
		return bestN
	}
	// Monotone curve: find the knee by marginal speedup.
	np := 1
	for n := 2; n <= len(times); n++ {
		marginal := times[0]/times[n-1] - times[0]/times[n-2]
		if marginal >= kneeSlopeFraction {
			np = n
		}
	}
	return np
}

// NPModel is the trained inflection-point regression.
type NPModel struct {
	Model    *mlr.Model
	MaxCores int
	// TrainR2 and TrainMAE summarise fit quality on the training set.
	TrainR2  float64
	TrainMAE float64
}

var _ profile.NPPredictor = (*NPModel)(nil)

// PredictNP implements profile.NPPredictor: evaluate the regression on
// the raw Table I feature vector (the log compression applied during
// training is applied here too) and clamp to a valid even concurrency.
func (m *NPModel) PredictNP(features []float64) (int, error) {
	y, err := m.Model.Predict(logFeatures(features))
	if err != nil {
		return 0, err
	}
	np := int(math.Floor(y))
	return profile.ClampNP(np, m.MaxCores), nil
}

// logFeatures compresses raw event rates logarithmically; rates span
// orders of magnitude and the paper's MLR works on comparable scales.
func logFeatures(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = math.Log1p(math.Abs(v))
	}
	return out
}

// TrainNP trains the inflection-point regression for a node spec on a
// set of training applications: each is profiled (samples 1-2) and
// exhaustively swept for its ground-truth NP, then an MLR is fitted on
// the Table I event features. This reproduces the paper's offline
// training over NPB, HPCC, STREAM and PolyBench workloads.
//
// Training runs uncapped on one nominal node (a one-node cluster of
// spec with no manufacturing variability), so the model depends on the
// spec alone and one model serves every cluster built from that spec.
func TrainNP(spec *hw.NodeSpec, apps []*workload.Spec) (*NPModel, error) {
	if len(apps) < 10 {
		return nil, fmt.Errorf("perfmodel: training set too small (%d apps)", len(apps))
	}
	cl := hw.NewCluster(1, spec, 0, 0)
	pr := &profile.Profiler{Cluster: cl}
	var x [][]float64
	var y []float64
	for _, app := range apps {
		p, err := pr.Basic(app)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: train %s: %w", app.Name, err)
		}
		np, err := GroundTruthNP(cl, app, p.Affinity)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: truth %s: %w", app.Name, err)
		}
		x = append(x, logFeatures(p.Features()))
		y = append(y, float64(np))
	}
	m, err := mlr.Fit(x, y, 1.0)
	if err != nil {
		return nil, fmt.Errorf("perfmodel: fit: %w", err)
	}
	pred := make([]float64, len(x))
	for i := range x {
		pred[i], _ = m.Predict(x[i])
	}
	return &NPModel{
		Model:    m,
		MaxCores: spec.Cores(),
		TrainR2:  mlr.R2(y, pred),
		TrainMAE: mlr.MAE(y, pred),
	}, nil
}

// Predictor estimates runtime-per-iteration for arbitrary target
// configurations from a profile, implementing the piecewise model of
// Equations 1-3. CLIP uses it to rank configurations without
// exhaustively executing them.
type Predictor struct {
	Spec *hw.NodeSpec
	Prof *profile.Profile
	// NP is the (predicted) inflection point used as the piecewise
	// break; the full core count for linear applications.
	NP int

	// hyperbola T(n) = a/n + b fitted through the profiled samples of
	// the first (linear) segment.
	a, b float64
	// tail linear segment for n > NP: T(n) = tailT0 + tailSlope*(n-NP).
	tailT0, tailSlope float64
	// bytesPerIter is the DRAM traffic estimate per iteration (GB).
	bytesPerIter float64
	fRef         float64
}

// NewPredictor builds a predictor from a profile. Non-linear profiles
// must carry the third (inflection) sample.
func NewPredictor(spec *hw.NodeSpec, p *profile.Profile) (*Predictor, error) {
	pd := &Predictor{Spec: spec, Prof: p, NP: p.PredictedNP, fRef: spec.FMax(), bytesPerIter: p.BytesPerIter}
	if pd.NP <= 0 {
		pd.NP = p.NodeCores
	}

	fit := func(n1 int, t1 float64, n2 int, t2 float64) (a, b float64, err error) {
		if n1 == n2 {
			return 0, 0, fmt.Errorf("perfmodel: degenerate fit points n=%d", n1)
		}
		inv1, inv2 := 1/float64(n1), 1/float64(n2)
		a = (t1 - t2) / (inv1 - inv2)
		b = t1 - a*inv1
		if a < 0 {
			// Non-physical (runtime growing with 1/n); flatten.
			a, b = 0, math.Min(t1, t2)
		}
		return a, b, nil
	}

	var err error
	switch p.Class {
	case workload.Linear:
		pd.a, pd.b, err = fit(p.Half.Cores, p.Half.IterTime, p.All.Cores, p.All.IterTime)
		pd.tailT0 = pd.at(pd.NP)
		pd.tailSlope = 0
	case workload.Logarithmic, workload.Parabolic:
		if p.NP == nil {
			return nil, fmt.Errorf("perfmodel: profile %s lacks inflection sample", p.App)
		}
		// Three measured anchors are available: half-core, all-core and
		// the predicted-inflection sample. The regression's NP can err
		// either way, so the piecewise break is re-anchored on the
		// fastest measured sample — measurements outrank the predicted
		// break (the paper's model is anchored on measured sample
		// configurations too, Eq. 1-3).
		samples := dedupeSamples([]anchor{
			{p.Half.Cores, p.Half.IterTime},
			{p.All.Cores, p.All.IterTime},
			{p.NP.Cores, p.NP.IterTime},
		})
		best := samples[0]
		for _, s := range samples {
			if s.t < best.t {
				best = s
			}
		}
		pd.NP = best.n

		// First segment: fit through the closest sample below the knee
		// when one exists; otherwise assume ideal linear speedup up to
		// the knee (S(n) ∝ n, §II).
		var below *anchor
		for i := range samples {
			s := samples[i]
			if s.n < best.n && (below == nil || s.n > below.n) {
				below = &s
			}
		}
		if below != nil {
			pd.a, pd.b, err = fit(below.n, below.t, best.n, best.t)
			if err == nil && pd.a <= 0 {
				pd.a, pd.b = best.t*float64(best.n), 0
			}
		} else {
			pd.a, pd.b = best.t*float64(best.n), 0
		}

		// Tail: slope toward the closest sample above the knee.
		pd.tailT0 = pd.at(pd.NP)
		var above *anchor
		for i := range samples {
			s := samples[i]
			if s.n > best.n && (above == nil || s.n < above.n) {
				above = &s
			}
		}
		if above != nil {
			pd.tailSlope = (above.t - pd.tailT0) / float64(above.n-best.n)
		}
		if p.Class == workload.Logarithmic && pd.tailSlope > 0 {
			// A logarithmic tail never loses performance; clamp.
			pd.tailSlope = 0
		}
	default:
		return nil, fmt.Errorf("perfmodel: profile %s has unknown class", p.App)
	}
	if err != nil {
		return nil, err
	}
	return pd, nil
}

// anchor is one measured (cores, iteration time) sample.
type anchor struct {
	n int
	t float64
}

// dedupeSamples collapses anchors sharing a core count, keeping the
// faster measurement.
func dedupeSamples(in []anchor) []anchor {
	byN := make(map[int]float64)
	for _, s := range in {
		if t, ok := byN[s.n]; !ok || s.t < t {
			byN[s.n] = s.t
		}
	}
	out := make([]anchor, 0, len(byN))
	for n, t := range byN {
		out = append(out, anchor{n, t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n < out[j].n })
	return out
}

// at evaluates the first-segment hyperbola.
func (pd *Predictor) at(n int) float64 { return pd.a/float64(n) + pd.b }

// BaseTime predicts the per-iteration runtime at n cores, reference
// frequency, unconstrained memory.
func (pd *Predictor) BaseTime(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if n <= pd.NP {
		return pd.at(n)
	}
	return pd.tailT0 + pd.tailSlope*float64(n-pd.NP)
}

// Time predicts the per-iteration runtime at n cores, effective
// frequency f (GHz), under a DRAM power cap of memCap watts. It adds a
// memory-throttling penalty when the cap admits less bandwidth than the
// configuration demands, and scales the compute portion with frequency
// (S(freq) ∝ freq, §II).
func (pd *Predictor) Time(n int, f, memCap float64) float64 { return pd.Terms(n, memCap).At(f) }

// Terms holds the parts of a Time prediction that do not depend on the
// frequency, for a caller that evaluates one (cores, DRAM cap) pair at
// many frequencies: Terms(n, memCap).At(f) is Time(n, f, memCap).
type Terms struct {
	// compute and memory split the reference-frequency iteration time;
	// penalty is the DRAM cap's serialisation cost (0 when the cap
	// admits the demand).
	compute, memory, penalty, fRef float64
	// inf marks a configuration with no finite prediction.
	inf bool
}

// At returns the predicted iteration time at effective frequency f.
func (tt Terms) At(f float64) float64 {
	if tt.inf {
		return math.Inf(1)
	}
	// Adding a zero penalty leaves the positive time unchanged.
	return tt.compute*(tt.fRef/f) + tt.memory + tt.penalty
}

// Terms returns the frequency-independent parts of Time(n, ·, memCap).
func (pd *Predictor) Terms(n int, memCap float64) Terms {
	t0 := pd.BaseTime(n)
	if math.IsInf(t0, 1) || t0 <= 0 {
		return Terms{inf: true}
	}
	sockets := sim.SocketsUsedFor(pd.Spec, n, pd.Prof.Affinity)

	demandBW := 0.0
	if pd.bytesPerIter > 0 {
		demandBW = pd.bytesPerIter / t0
	}
	// Fraction of the iteration bound by the memory system, inferred
	// from demand against the socket bandwidth ceiling.
	ceilBW := float64(sockets) * pd.Spec.SocketMemBW
	memFrac := 0.0
	if ceilBW > 0 {
		memFrac = math.Min(1, demandBW/ceilBW)
	}

	tt := Terms{compute: t0 * (1 - memFrac), memory: t0 * memFrac, fRef: pd.fRef}

	// DRAM cap penalty: excess traffic serialises at the admitted rate.
	admit := power.MemBandwidthCap(pd.Spec, sockets, memCap)
	if demandBW > admit && admit > 0 && pd.bytesPerIter > 0 {
		tt.penalty = pd.bytesPerIter * (1/admit - 1/demandBW)
	}
	return tt
}

// MemDemandWatts estimates the DRAM power needed to sustain the
// configuration's bandwidth demand at n cores, used by the power
// coordinator to size the paper's application-specific memory budget.
func (pd *Predictor) MemDemandWatts(n int) float64 {
	t0 := pd.BaseTime(n)
	sockets := sim.SocketsUsedFor(pd.Spec, n, pd.Prof.Affinity)
	demandBW := 0.0
	if t0 > 0 && pd.bytesPerIter > 0 {
		demandBW = pd.bytesPerIter / t0
	}
	return power.MemPowerAt(pd.Spec, sockets, demandBW)
}
