package sim

import (
	"math"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/workload"
)

// This file holds the model decisions every package shares: thread
// placement, NUMA traffic, per-core bandwidth, the bandwidth ceiling,
// phase timing and the communication term. Run, EvalTime and the
// discrete-event simulator (internal/des) execute identical workload
// models through them and can be cross-validated; profiling, the
// predictors, recommend, the coordinator and the Optimal oracle use
// SocketsUsedFor rather than a copy of the placement rule.

// SocketsUsedFor returns how many sockets host n threads under the
// mapping policy: scatter spreads over all sockets, compact fills them
// in order. It is the one thread-placement rule every package uses.
func SocketsUsedFor(spec *hw.NodeSpec, n int, aff workload.Affinity) int {
	if aff == workload.Scatter {
		if n < spec.Sockets {
			return n
		}
		return spec.Sockets
	}
	return power.SocketsFor(spec, n)
}

// RemoteFractionFor returns the fraction of memory traffic crossing the
// NUMA interconnect for this application and mapping.
func RemoteFractionFor(app *workload.Spec, sockets int, aff workload.Affinity) float64 {
	if !app.SharedData || sockets <= 1 {
		return 0
	}
	if aff == workload.Scatter {
		return app.RemoteFrac
	}
	// Compact mappings that still span sockets share less data across
	// the boundary than a full scatter.
	return app.RemoteFrac * 0.6
}

// CoreBW returns the per-core achievable memory bandwidth (GB/s) at
// frequency f for an application with bandwidth factor bwf.
func CoreBW(spec *hw.NodeSpec, f, bwf float64) float64 {
	return spec.CoreMemBW * bwf * (0.4 + 0.6*f/spec.FMax())
}

// BandwidthCeiling returns the memory bandwidth available to a phase:
// the minimum of core concurrency, socket channels, and (when capped)
// the DRAM power cap.
func BandwidthCeiling(spec *hw.NodeSpec, app *workload.Spec, n, sockets int, f float64, capped bool, memCap float64) float64 {
	bwCeil := math.Min(float64(n)*CoreBW(spec, f, app.BWFactor()), float64(sockets)*spec.SocketMemBW)
	if capped {
		bwCeil = math.Min(bwCeil, power.MemBandwidthCap(spec, sockets, memCap))
	}
	return bwCeil
}

// PhaseTime returns the duration in seconds of one execution of phase
// ph with n threads at frequency f, plus the DRAM traffic in GB it
// moves. shard is the fraction of the whole job this node executes
// (1/N for strong scaling across N nodes); bwCeil is the admitted
// memory bandwidth; rf the cross-NUMA traffic fraction.
func PhaseTime(ph workload.Phase, n int, f, shard, bwCeil, rf, remotePenalty float64) (seconds, bytes float64) {
	bytes = ph.MemoryBytes * shard * (1 + rf*remotePenalty)
	tComp := ph.SerialCycles/f + (ph.ParallelCycles*shard)/(float64(n)*f)
	if n > 1 {
		tComp *= 1 + ph.SyncCoeff*math.Log2(float64(n))
		if n%2 == 1 {
			// Odd thread counts split tiles/domains unevenly; the paper
			// observes odd concurrency underperforms its even neighbour.
			tComp *= 1 + OddConcurrencyPenalty
		}
	}
	// Contention scales with the shared work this node performs.
	tCont := ph.ContentionCoeff * float64(n) * float64(n) * shard / f
	tMem := 0.0
	if bytes > 0 && bwCeil > 0 {
		tMem = bytes / bwCeil
	}
	return tComp + tCont + math.Max(0, tMem-ph.Overlap*tComp), bytes
}

// CommTimeFor returns the per-iteration communication cost of an
// N-node run on this cluster: a log2(N) collective-latency term plus a
// halo-volume term that shrinks with the surface-to-volume exponent.
func CommTimeFor(cl *hw.Cluster, app *workload.Spec, nodes int) float64 {
	if nodes <= 1 {
		return 0
	}
	n := float64(nodes)
	lat := app.CommLatFactor * cl.CommBaseLatency * math.Log2(n)
	vol := app.CommBytes * math.Pow(1/n, app.SurfaceExp) / cl.LinkBW
	if app.Scaling == workload.WeakScaling {
		// Per-node halo volume stays constant when the problem grows
		// with the node count.
		vol = app.CommBytes / cl.LinkBW
	}
	return lat + vol
}
