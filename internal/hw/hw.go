// Package hw describes the machine model CLIP schedules on: cluster
// topology, NUMA multicore nodes, the DVFS frequency ladder, and
// per-node manufacturing variability.
//
// The paper's testbed is an 8-node cluster of dual-socket 12-core Intel
// Xeon E5-2670v3 (Haswell) nodes with 128 GB DDR4 split across two NUMA
// sockets. Haswell() reproduces that topology; other presets support the
// test suite and experiments.
package hw

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// NodeSpec describes the hardware of a single compute node.
type NodeSpec struct {
	// Sockets is the number of processor sockets (NUMA domains).
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int
	// FreqLevels is the DVFS frequency ladder in GHz, ascending.
	FreqLevels []float64

	// SocketBasePower is the uncore/package idle power per socket in
	// watts, consumed whenever the socket is powered regardless of load.
	SocketBasePower float64
	// CoreIdlePower is the static power of one active core in watts.
	CoreIdlePower float64
	// CoreDynCoeff and CoreDynExp parameterise the dynamic power of one
	// active core: p(f) = CoreDynCoeff * f^CoreDynExp watts, f in GHz.
	CoreDynCoeff float64
	CoreDynExp   float64

	// MemBasePower is the DRAM background power per socket in watts.
	MemBasePower float64
	// MemMaxPower is the DRAM power per socket at full bandwidth in watts.
	MemMaxPower float64
	// SocketMemBW is the peak DRAM bandwidth of one socket in GB/s.
	SocketMemBW float64
	// CoreMemBW is the bandwidth one core can draw at the highest
	// frequency in GB/s; it scales with frequency.
	CoreMemBW float64
	// RemotePenalty is the multiplicative latency/traffic penalty for
	// accessing the other socket's memory (cross-NUMA), e.g. 0.6 means
	// remote traffic costs 1.6x local traffic.
	RemotePenalty float64

	// OtherPower is the per-node power of components outside CPU+DRAM
	// (NIC, disks, fans) in watts; it is constant and not manageable.
	OtherPower float64

	// The lazily built nominal power-ladder tables keyed by
	// (activeCores, socketsUsed) make the cap solvers in internal/power
	// a binary search instead of a walk down the DVFS ladder recomputing
	// the power polynomial. In-range configurations live in a flat
	// atomic-pointer table (one load per hit — the solvers call this on
	// every candidate of every search); out-of-range requests fall back
	// to a mutex-guarded map. Specs are shared by pointer, so both
	// caches are concurrency safe.
	ladderOnce sync.Once
	ladderTab  []atomic.Pointer[[]float64]
	ladderMu   sync.RWMutex
	ladders    map[ladderKey][]float64
}

// ladderKey identifies one cached power ladder.
type ladderKey struct {
	cores, sockets int
}

// Cores returns the total core count of the node.
func (s *NodeSpec) Cores() int { return s.Sockets * s.CoresPerSocket }

// FMin returns the lowest DVFS frequency in GHz.
func (s *NodeSpec) FMin() float64 { return s.FreqLevels[0] }

// FMax returns the highest DVFS frequency in GHz.
func (s *NodeSpec) FMax() float64 { return s.FreqLevels[len(s.FreqLevels)-1] }

// NominalCPUPower returns the CPU-domain power of a nominal
// (variability 1.0) node in watts when activeCores cores run at
// frequency f (GHz) over socketsUsed sockets. Sockets with no active
// cores are assumed parked and draw no budgeted power. Per-node
// manufacturing variability is a multiplicative factor applied by the
// callers in internal/power.
func (s *NodeSpec) NominalCPUPower(activeCores, socketsUsed int, f float64) float64 {
	if activeCores <= 0 || socketsUsed <= 0 {
		return 0
	}
	perCore := s.CoreIdlePower + s.CoreDynCoeff*math.Pow(f, s.CoreDynExp)
	return float64(socketsUsed)*s.SocketBasePower + float64(activeCores)*perCore
}

// LadderPowers returns the nominal CPU-domain power at every DVFS
// ladder frequency for a configuration of activeCores cores over
// socketsUsed sockets, ascending with FreqLevels. The slice is cached
// on the spec and shared: callers must not modify it.
func (s *NodeSpec) LadderPowers(activeCores, socketsUsed int) []float64 {
	if activeCores >= 1 && activeCores <= s.Cores() && socketsUsed >= 1 && socketsUsed <= s.Sockets {
		s.ladderOnce.Do(func() {
			s.ladderTab = make([]atomic.Pointer[[]float64], (s.Cores()+1)*(s.Sockets+1))
		})
		slot := &s.ladderTab[activeCores*(s.Sockets+1)+socketsUsed]
		if p := slot.Load(); p != nil {
			return *p
		}
		t := make([]float64, len(s.FreqLevels))
		for i, f := range s.FreqLevels {
			t[i] = s.NominalCPUPower(activeCores, socketsUsed, f)
		}
		// Racing writers store identical tables; last one wins and the
		// earlier slice stays valid for its caller.
		slot.Store(&t)
		return t
	}
	key := ladderKey{activeCores, socketsUsed}
	s.ladderMu.RLock()
	t, ok := s.ladders[key]
	s.ladderMu.RUnlock()
	if ok {
		return t
	}
	t = make([]float64, len(s.FreqLevels))
	for i, f := range s.FreqLevels {
		t[i] = s.NominalCPUPower(activeCores, socketsUsed, f)
	}
	s.ladderMu.Lock()
	if prev, ok := s.ladders[key]; ok {
		t = prev // another goroutine won the race; share its slice
	} else {
		if s.ladders == nil {
			s.ladders = make(map[ladderKey][]float64)
		}
		s.ladders[key] = t
	}
	s.ladderMu.Unlock()
	return t
}

// NearestFreq returns the highest ladder frequency <= f, or FMin if f is
// below the ladder.
func (s *NodeSpec) NearestFreq(f float64) float64 {
	best := s.FreqLevels[0]
	for _, lv := range s.FreqLevels {
		if lv <= f+1e-9 {
			best = lv
		}
	}
	return best
}

// Validate reports an error if the spec is internally inconsistent.
func (s *NodeSpec) Validate() error {
	switch {
	case s.Sockets <= 0:
		return fmt.Errorf("hw: sockets must be positive, got %d", s.Sockets)
	case s.CoresPerSocket <= 0:
		return fmt.Errorf("hw: cores per socket must be positive, got %d", s.CoresPerSocket)
	case len(s.FreqLevels) == 0:
		return fmt.Errorf("hw: empty frequency ladder")
	case s.MemMaxPower < s.MemBasePower:
		return fmt.Errorf("hw: MemMaxPower %.1f < MemBasePower %.1f", s.MemMaxPower, s.MemBasePower)
	case s.SocketMemBW <= 0 || s.CoreMemBW <= 0:
		return fmt.Errorf("hw: memory bandwidths must be positive")
	}
	prev := math.Inf(-1)
	for i, f := range s.FreqLevels {
		if f <= 0 {
			return fmt.Errorf("hw: frequency level %d is non-positive: %g", i, f)
		}
		if f <= prev {
			return fmt.Errorf("hw: frequency ladder not ascending at level %d", i)
		}
		prev = f
	}
	return nil
}

// Node is one compute node instance: a spec plus per-node manufacturing
// variability.
type Node struct {
	ID   int
	Spec *NodeSpec
	// PowerEff is the manufacturing variability coefficient: the node
	// draws PowerEff times the nominal CPU power for the same
	// configuration. 1.0 is a nominal part; >1 is a leaky (inefficient)
	// part that hits a power cap at a lower frequency.
	PowerEff float64
}

// Cluster is the machine CLIP manages.
type Cluster struct {
	Nodes []*Node
	// LinkBW is the network bandwidth per node in GB/s.
	LinkBW float64
	// CommBaseLatency is the per-message software+wire latency in
	// seconds used by the log2(N) collective term.
	CommBaseLatency float64
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.Nodes) }

// Spec returns the node spec (homogeneous clusters only).
func (c *Cluster) Spec() *NodeSpec { return c.Nodes[0].Spec }

// MaxVariability returns the largest pairwise difference in PowerEff
// across nodes, the paper's trigger for inter-node coordination.
func (c *Cluster) MaxVariability() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range c.Nodes {
		lo = math.Min(lo, n.PowerEff)
		hi = math.Max(hi, n.PowerEff)
	}
	if len(c.Nodes) == 0 {
		return 0
	}
	return hi - lo
}

// Validate reports an error if the cluster is inconsistent.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("hw: cluster has no nodes")
	}
	for i, n := range c.Nodes {
		if n == nil || n.Spec == nil {
			return fmt.Errorf("hw: node %d missing spec", i)
		}
		if err := n.Spec.Validate(); err != nil {
			return fmt.Errorf("hw: node %d: %w", i, err)
		}
		if !(n.PowerEff > 0) || math.IsInf(n.PowerEff, 1) {
			return fmt.Errorf("hw: node %d needs a finite, positive PowerEff, got %g", i, n.PowerEff)
		}
	}
	if c.LinkBW <= 0 {
		return fmt.Errorf("hw: LinkBW must be positive")
	}
	return nil
}

// freqLadder builds an ascending ladder from lo to hi (inclusive) in
// steps of step GHz.
func freqLadder(lo, hi, step float64) []float64 {
	var out []float64
	for f := lo; f <= hi+1e-9; f += step {
		out = append(out, math.Round(f*1000)/1000)
	}
	return out
}

// HaswellSpec returns the node model of the paper's testbed: two 12-core
// E5-2670v3 sockets (120 W TDP each) with DDR4 across two NUMA domains.
// Power constants are calibrated so a fully loaded socket at 2.3 GHz
// draws about its TDP and DRAM peaks near 30 W per socket.
func HaswellSpec() *NodeSpec {
	s := &NodeSpec{
		Sockets:         2,
		CoresPerSocket:  12,
		FreqLevels:      freqLadder(1.2, 2.3, 0.1),
		SocketBasePower: 16.0,
		CoreIdlePower:   0.7,
		CoreDynExp:      2.2,
		MemBasePower:    4.0,
		MemMaxPower:     30.0,
		SocketMemBW:     34.0,
		CoreMemBW:       5.5,
		RemotePenalty:   0.6,
		OtherPower:      40.0,
	}
	// Calibrate CoreDynCoeff so that base + 12*(idle + dyn(2.3)) = 120 W.
	perCore := (120.0-s.SocketBasePower)/float64(s.CoresPerSocket) - s.CoreIdlePower
	s.CoreDynCoeff = perCore / math.Pow(s.FMax(), s.CoreDynExp)
	return s
}

// BroadwellSpec returns a next-generation node model (2×14-core
// E5-2680v4-like, 135 W TDP sockets, faster DDR4): used by the
// robustness experiment to check CLIP's behaviour transfers across
// machine generations.
func BroadwellSpec() *NodeSpec {
	s := &NodeSpec{
		Sockets:         2,
		CoresPerSocket:  14,
		FreqLevels:      freqLadder(1.2, 2.4, 0.1),
		SocketBasePower: 17.0,
		CoreIdlePower:   0.6,
		CoreDynExp:      2.2,
		MemBasePower:    4.0,
		MemMaxPower:     32.0,
		SocketMemBW:     38.0,
		CoreMemBW:       5.2,
		RemotePenalty:   0.55,
		OtherPower:      42.0,
	}
	perCore := (135.0-s.SocketBasePower)/float64(s.CoresPerSocket) - s.CoreIdlePower
	s.CoreDynCoeff = perCore / math.Pow(s.FMax(), s.CoreDynExp)
	return s
}

// SkylakeSpec returns a wider node model (2×16-core Gold-6130-like,
// 125 W TDP sockets, six DDR4 channels).
func SkylakeSpec() *NodeSpec {
	s := &NodeSpec{
		Sockets:         2,
		CoresPerSocket:  16,
		FreqLevels:      freqLadder(1.0, 2.1, 0.1),
		SocketBasePower: 20.0,
		CoreIdlePower:   0.5,
		CoreDynExp:      2.3,
		MemBasePower:    5.0,
		MemMaxPower:     36.0,
		SocketMemBW:     55.0,
		CoreMemBW:       6.0,
		RemotePenalty:   0.7,
		OtherPower:      45.0,
	}
	perCore := (125.0-s.SocketBasePower)/float64(s.CoresPerSocket) - s.CoreIdlePower
	s.CoreDynCoeff = perCore / math.Pow(s.FMax(), s.CoreDynExp)
	return s
}

// CheckSigma reports an error unless sigma is a valid manufacturing
// variability for NewCluster: finite and non-negative.
func CheckSigma(sigma float64) error {
	if !(sigma >= 0) || math.IsInf(sigma, 1) {
		return fmt.Errorf("hw: variability sigma must be finite and non-negative, got %g", sigma)
	}
	return nil
}

// NewCluster builds a homogeneous cluster of n nodes from spec, with
// manufacturing variability drawn deterministically from seed. A
// variability of 0 yields identical nodes; the paper's testbed is "quite
// homogeneous" so the default experiments use a small sigma (e.g. 0.02).
// Each node's PowerEff is 1 + sigma·z for one standard normal deviate z
// of an rng.Source seeded with seed, clamped to ±3 sigma. A sigma that
// fails CheckSigma is the caller's error.
func NewCluster(n int, spec *NodeSpec, sigma float64, seed int64) *Cluster {
	src := rng.New(uint64(seed))
	nodes := make([]*Node, n)
	for i := range nodes {
		eff := 1.0
		if sigma > 0 {
			// Clamp to a plausible binning range for shipped parts.
			eff = 1 + sigma*src.Norm()
			if eff < 1-3*sigma {
				eff = 1 - 3*sigma
			}
			if eff > 1+3*sigma {
				eff = 1 + 3*sigma
			}
		}
		nodes[i] = &Node{ID: i, Spec: spec, PowerEff: eff}
	}
	return &Cluster{Nodes: nodes, LinkBW: 6.0, CommBaseLatency: 4e-6}
}

// Haswell returns the paper's 8-node testbed with mild manufacturing
// variability.
func Haswell() *Cluster { return NewCluster(8, HaswellSpec(), 0.02, 42) }
