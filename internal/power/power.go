// Package power models node power consumption and RAPL-like power
// capping. The paper enforces power bounds with Intel RAPL (PKG and DRAM
// domains) and DVFS; this package reproduces those actuators analytically:
// a cap solver derates the DVFS frequency until the CPU domain fits its
// cap, and a DRAM cap admits a proportional fraction of peak bandwidth.
package power

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/telemetry"
)

// Telemetry handles: ladder lookups are the innermost hot path of every
// scheduling sweep, so the counters below are single atomic adds.
var (
	mSolveFreq = telemetry.Default.Counter("clip_power_solvefreq_total",
		"DVFS ladder binary-search lookups (cap-to-frequency solves)")
	mDutyCycle = telemetry.Default.Counter("clip_power_dutycycle_total",
		"caps below the lowest DVFS frequency resolved by duty cycling")
)

// Budget is a node-level power budget split across the two manageable
// domains (the paper's Pcpu and Pmem), in watts. CPU covers all sockets
// of the node together; Mem covers all DRAM domains together.
type Budget struct {
	CPU float64
	Mem float64
}

// Total returns CPU + Mem.
func (b Budget) Total() float64 { return b.CPU + b.Mem }

// Valid reports whether both domains are non-negative.
func (b Budget) Valid() bool { return b.CPU >= 0 && b.Mem >= 0 }

// String renders the budget for logs and tables.
func (b Budget) String() string {
	return fmt.Sprintf("cpu=%.1fW mem=%.1fW", b.CPU, b.Mem)
}

// DerateBudget removes frac of a node budget's total power, taking the
// cut from the CPU domain first and trimming DRAM only once the CPU
// domain is exhausted — DRAM refresh power buys proportionally more
// performance than the last DVFS step, so an emergency re-cap (thermal
// derate, sensor excursion) should starve compute before bandwidth.
// frac <= 0 (or NaN, a degenerate rate) returns the budget unchanged;
// frac >= 1 returns zero. Both domains of the result are clamped at
// zero so the derated budget always satisfies Valid(), even when float
// rounding leaves a sub-ULP negative residue in the exhausted domain.
func DerateBudget(b Budget, frac float64) Budget {
	if frac <= 0 || math.IsNaN(frac) {
		return b
	}
	if frac >= 1 {
		return Budget{}
	}
	cut := b.Total() * frac
	if cut <= b.CPU {
		return Budget{CPU: clampWatts(b.CPU - cut), Mem: b.Mem}
	}
	return Budget{CPU: 0, Mem: clampWatts(b.Mem - (cut - b.CPU))}
}

// clampWatts zeroes negative (or NaN) float residue in a derated power
// domain.
func clampWatts(w float64) float64 {
	if w > 0 {
		return w
	}
	return 0
}

// CPUPower returns the CPU-domain power of one node in watts when
// activeCores cores run at frequency f (GHz), distributed over
// socketsUsed sockets, scaled by the node's manufacturing variability
// coefficient eff. Sockets with no active cores are assumed parked into
// a deep package sleep state and draw no budgeted power.
func CPUPower(spec *hw.NodeSpec, activeCores, socketsUsed int, f, eff float64) float64 {
	return spec.NominalCPUPower(activeCores, socketsUsed, f) * eff
}

// MemPowerAt returns the DRAM-domain power in watts when the node draws
// bw GB/s of memory bandwidth over socketsUsed sockets. The model is
// linear between base (idle) and max (full bandwidth) power, matching
// measured DRAM activity power on Haswell.
func MemPowerAt(spec *hw.NodeSpec, socketsUsed int, bw float64) float64 {
	if socketsUsed <= 0 {
		return 0
	}
	maxBW := float64(socketsUsed) * spec.SocketMemBW
	util := 0.0
	if maxBW > 0 {
		util = math.Min(1, math.Max(0, bw/maxBW))
	}
	base := float64(socketsUsed) * spec.MemBasePower
	span := float64(socketsUsed) * (spec.MemMaxPower - spec.MemBasePower)
	return base + util*span
}

// MemBandwidthCap returns the maximum memory bandwidth (GB/s, across
// socketsUsed sockets) admissible under a DRAM power cap of memCap
// watts. This is the inverse of MemPowerAt: RAPL DRAM limiting manifests
// as bandwidth throttling.
func MemBandwidthCap(spec *hw.NodeSpec, socketsUsed int, memCap float64) float64 {
	if socketsUsed <= 0 {
		return 0
	}
	base := float64(socketsUsed) * spec.MemBasePower
	span := float64(socketsUsed) * (spec.MemMaxPower - spec.MemBasePower)
	if memCap <= base {
		// Below background power the modules still refresh; admit a
		// trickle so forward progress is possible (RAPL cannot power
		// off DIMMs either).
		return 0.02 * float64(socketsUsed) * spec.SocketMemBW
	}
	util := math.Min(1, (memCap-base)/span)
	return util * float64(socketsUsed) * spec.SocketMemBW
}

// DutyCycleEfficiency is the useful fraction of throughput retained per
// unit of duty cycle when RAPL clamps below the lowest DVFS frequency
// with clock modulation: stop-go execution wastes pipeline refills, so
// 1 W of duty-cycled budget buys less performance than 1 W of DVFS
// budget. This is why running inside the paper's "acceptable power
// range" beats letting RAPL throttle.
const DutyCycleEfficiency = 0.75

// EffectiveFreq returns the throughput-equivalent frequency sustained
// under cpuCap. Within the DVFS range it is a ladder frequency; below
// the range it falls back to duty-cycled Fmin with efficiency loss.
// ok is false when duty cycling was required.
func EffectiveFreq(spec *hw.NodeSpec, activeCores, socketsUsed int, cpuCap, eff float64) (fEff, pDraw float64, ok bool) {
	f, p, ok := SolveFreq(spec, activeCores, socketsUsed, cpuCap, eff)
	if ok {
		return f, p, true
	}
	mDutyCycle.Inc()
	fEff, pDraw = DutyCycle(f, p, cpuCap)
	return fEff, pDraw, false
}

// DutyCycle returns the throughput-equivalent frequency and the power
// drawn when a cap of cpuCap watts sits below pMin, the draw at the
// lowest DVFS frequency fMin: RAPL clock-modulates fMin to the cap's
// share of pMin (at least 5%), with DutyCycleEfficiency's loss. It is
// EffectiveFreq below the DVFS range, for a caller that already knows
// the cap is there.
func DutyCycle(fMin, pMin, cpuCap float64) (fEff, pDraw float64) {
	duty := cpuCap / pMin
	if duty < 0.05 {
		duty = 0.05
	}
	return fMin * duty * DutyCycleEfficiency, math.Min(cpuCap, pMin)
}

// SolveFreq returns the highest DVFS ladder frequency at which
// activeCores cores over socketsUsed sockets fit within cpuCap watts for
// a node with variability eff, and the power drawn at that frequency.
// ok is false when even the lowest frequency exceeds the cap; the lowest
// frequency is still returned (clamping below Fmin is not possible with
// DVFS alone, mirroring RAPL's behaviour of duty-cycling, which the
// paper's acceptable power range explicitly avoids).
// The ladder powers are precomputed per (cores, sockets) on the spec
// (hw.NodeSpec.LadderPowers) and ascend with frequency, so the solve is
// a binary search for the highest fitting level with the node's
// variability factor applied analytically, rather than re-evaluating
// the power polynomial down the ladder.
func SolveFreq(spec *hw.NodeSpec, activeCores, socketsUsed int, cpuCap, eff float64) (f, p float64, ok bool) {
	mSolveFreq.Inc()
	ladder := spec.LadderPowers(activeCores, socketsUsed)
	// Find the largest index whose power fits the cap: invariant
	// ladder[lo-1]*eff fits, ladder[hi]*eff does not.
	lo, hi := 0, len(ladder)
	for lo < hi {
		mid := (lo + hi) / 2
		if ladder[mid]*eff <= cpuCap+1e-9 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		// Even the lowest frequency exceeds the cap.
		return spec.FreqLevels[0], ladder[0] * eff, false
	}
	return spec.FreqLevels[lo-1], ladder[lo-1] * eff, true
}

// SocketsFor returns the fewest sockets needed to host n cores.
func SocketsFor(spec *hw.NodeSpec, n int) int {
	if n <= 0 {
		return 0
	}
	s := (n + spec.CoresPerSocket - 1) / spec.CoresPerSocket
	if s > spec.Sockets {
		s = spec.Sockets
	}
	return s
}
