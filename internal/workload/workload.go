// Package workload models the parallel applications CLIP schedules.
//
// The paper evaluates hybrid MPI/OpenMP benchmarks (Table II) on real
// hardware. This repository substitutes parametric application models:
// each Spec describes how much serial and parallel computation, memory
// traffic, synchronisation and contention one iteration performs, which
// the simulator (internal/sim) turns into execution time, power draw and
// hardware-event counts under any resource configuration. The parameters
// are tuned so the suite exhibits the paper's three scalability classes
// (linear, logarithmic, parabolic) on the Haswell node model.
package workload

import (
	"fmt"

	"repro/internal/rng"
)

// Class is the scalability trend of an application on one node
// (paper §II, Figure 2).
type Class int

const (
	// Unknown means the class has not been determined yet.
	Unknown Class = iota
	// Linear applications speed up proportionally with core count.
	Linear
	// Logarithmic applications speed up linearly up to an inflection
	// point NP and slowly afterwards (bandwidth saturation).
	Logarithmic
	// Parabolic applications slow down beyond an optimal core count
	// (contention, synchronisation).
	Parabolic
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Linear:
		return "linear"
	case Logarithmic:
		return "logarithmic"
	case Parabolic:
		return "parabolic"
	default:
		return "unknown"
	}
}

// Scaling selects how a job's work divides across nodes.
type Scaling int

const (
	// StrongScaling keeps the total problem fixed: each of N nodes
	// works on 1/N of it (the paper's evaluation mode).
	StrongScaling Scaling = iota
	// WeakScaling grows the problem with the node count: every node
	// keeps the single-node share, and the figure of merit becomes
	// throughput rather than runtime.
	WeakScaling
)

// String implements fmt.Stringer.
func (s Scaling) String() string {
	if s == WeakScaling {
		return "weak"
	}
	return "strong"
}

// Affinity is a thread-to-socket mapping policy (paper step 3:
// "choose core and memory affinity based on memory access intensity").
type Affinity int

const (
	// Compact packs threads onto the fewest sockets (fill socket 0
	// first). Minimises cross-NUMA traffic and socket base power.
	Compact Affinity = iota
	// Scatter round-robins threads across sockets. Doubles the
	// available memory bandwidth but pays socket base power and, for
	// shared-data applications, cross-NUMA access penalties.
	Scatter
)

// String implements fmt.Stringer.
func (a Affinity) String() string {
	if a == Scatter {
		return "scatter"
	}
	return "compact"
}

// Phase is one computational phase of an iteration. Most applications
// are modelled with a single phase; BT-MZ carries a separate exch_qbc
// phase whose poor scalability dominates beyond half-core concurrency
// (paper §V-B1).
type Phase struct {
	// Name identifies the phase in phase-wise concurrency reports.
	Name string
	// SerialCycles is non-parallelisable work per iteration, in
	// gigacycles (Gcycles / frequency-in-GHz = seconds).
	SerialCycles float64
	// ParallelCycles is the parallel work of the whole job per
	// iteration, in gigacycles; it divides across nodes and cores.
	ParallelCycles float64
	// MemoryBytes is DRAM traffic of the whole job per iteration in GB;
	// it divides across nodes.
	MemoryBytes float64
	// SyncCoeff scales the log2(n) per-iteration synchronisation
	// overhead among n threads.
	SyncCoeff float64
	// ContentionCoeff (gamma) is the coefficient of the n^2 contention
	// term in Gcycles; gamma > 0 produces the parabolic class.
	ContentionCoeff float64
	// Overlap in [0,1] is the fraction of memory time hidden beneath
	// computation (hardware prefetch / OoO overlap).
	Overlap float64
}

// Spec is a schedulable application model.
type Spec struct {
	// Name identifies the application (e.g. "bt-mz.C").
	Name string
	// Pattern is the paper's workload-pattern column ("compute",
	// "compute/memory", "memory").
	Pattern string
	// PaperClass is the scalability class Table II reports, used only
	// to validate classification experiments; scheduling never reads it.
	PaperClass Class
	// Iterations is the number of outer iterations of a full run.
	Iterations int
	// ProfileIterations is the short run used by smart profiling.
	ProfileIterations int
	// Phases composing one iteration.
	Phases []Phase

	// CommBytes is per-node communication volume per iteration in GB at
	// the single-node reference; it scales with (1/N)^SurfaceExp.
	CommBytes float64
	// SurfaceExp is the surface-to-volume exponent of the domain
	// decomposition (2/3 for 3-D halo exchange, 1 for all-to-all).
	SurfaceExp float64
	// CommLatFactor multiplies the cluster's log2(N) latency term
	// (collectives per iteration).
	CommLatFactor float64

	// SharedData marks applications whose threads share a working set:
	// spreading them across sockets induces RemoteFrac cross-NUMA
	// traffic; packing them avoids it.
	SharedData bool
	// RemoteFrac is the fraction of memory traffic that becomes remote
	// under an unfavourable mapping.
	RemoteFrac float64

	// CoreBWFactor scales the per-core achievable memory bandwidth
	// relative to the hardware default (streaming access patterns pull
	// more bandwidth per core than pointer chasing). Zero means 1.0.
	CoreBWFactor float64

	// ICacheMPKI parameterises instruction-cache misses per kilo
	// instruction (Table I event 0).
	ICacheMPKI float64
	// IPC is the nominal instructions per cycle used to derive the
	// instructions-retired counter.
	IPC float64

	// ProcCounts lists predefined MPI process counts the application
	// accepts (e.g. SP-MZ wants square-ish decompositions). Empty means
	// any node count from 1..cluster size.
	ProcCounts []int

	// Scaling selects strong (default) or weak scaling across nodes.
	Scaling Scaling

	// Priority is the default scheduling priority for jobs running this
	// application. Higher values dispatch first and may preempt running
	// lower-priority jobs when the power bound is fully committed. Zero
	// is the normal priority; jobs may override it per submission.
	Priority int

	// Constraint restricts which nodes the application may run on and
	// which it prefers. The zero value imposes no restriction.
	Constraint NodeConstraint
}

// NodeConstraint expresses node placement restrictions and affinities
// for an application. Hard constraints (AllowedNodes, MaxPowerEff)
// shrink the feasible node set; PreferNodes only reorders it.
type NodeConstraint struct {
	// AllowedNodes, when non-empty, is the exclusive set of node IDs the
	// application may be placed on.
	AllowedNodes []int
	// MaxPowerEff, when positive, excludes nodes whose PowerEff exceeds
	// it (higher PowerEff = more watts per unit work).
	MaxPowerEff float64
	// PreferNodes lists node IDs to rank ahead of the rest; it never
	// makes an otherwise-feasible node infeasible.
	PreferNodes []int
}

// Zero reports whether the constraint imposes no restriction or
// preference at all, which lets the scheduler skip the feasibility
// filter entirely.
func (c *NodeConstraint) Zero() bool {
	return len(c.AllowedNodes) == 0 && c.MaxPowerEff == 0 && len(c.PreferNodes) == 0
}

// Allows reports whether node id with the given power efficiency
// satisfies the hard constraints.
func (c *NodeConstraint) Allows(id int, powerEff float64) bool {
	if c.MaxPowerEff > 0 && powerEff > c.MaxPowerEff {
		return false
	}
	if len(c.AllowedNodes) == 0 {
		return true
	}
	for _, a := range c.AllowedNodes {
		if a == id {
			return true
		}
	}
	return false
}

// Prefers reports whether node id is listed as preferred.
func (c *NodeConstraint) Prefers(id int) bool {
	for _, p := range c.PreferNodes {
		if p == id {
			return true
		}
	}
	return false
}

// WeakScaled returns a copy of the spec configured for weak scaling,
// with " (weak)" appended to the name so knowledge-database entries
// stay distinct.
func (s *Spec) WeakScaled() *Spec {
	c := *s
	c.Phases = append([]Phase(nil), s.Phases...)
	c.ProcCounts = append([]int(nil), s.ProcCounts...)
	c.Scaling = WeakScaling
	c.Name += ".weak"
	return &c
}

// Validate reports an error for malformed specs.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec missing name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", s.Name)
	}
	if s.Iterations <= 0 {
		return fmt.Errorf("workload %s: non-positive iterations", s.Name)
	}
	for i, ph := range s.Phases {
		if ph.SerialCycles < 0 || ph.ParallelCycles < 0 || ph.MemoryBytes < 0 {
			return fmt.Errorf("workload %s: phase %d has negative work", s.Name, i)
		}
		if ph.ParallelCycles == 0 && ph.SerialCycles == 0 && ph.MemoryBytes == 0 {
			return fmt.Errorf("workload %s: phase %d is empty", s.Name, i)
		}
		if ph.Overlap < 0 || ph.Overlap > 1 {
			return fmt.Errorf("workload %s: phase %d overlap outside [0,1]", s.Name, i)
		}
	}
	if s.RemoteFrac < 0 || s.RemoteFrac > 1 {
		return fmt.Errorf("workload %s: RemoteFrac outside [0,1]", s.Name)
	}
	if s.SurfaceExp < 0 || s.SurfaceExp > 1 {
		return fmt.Errorf("workload %s: SurfaceExp outside [0,1]", s.Name)
	}
	if s.Constraint.MaxPowerEff < 0 {
		return fmt.Errorf("workload %s: negative MaxPowerEff constraint", s.Name)
	}
	for _, id := range s.Constraint.AllowedNodes {
		if id < 0 {
			return fmt.Errorf("workload %s: negative node id in AllowedNodes", s.Name)
		}
	}
	return nil
}

// TotalParallelCycles sums parallel work over phases for one iteration.
func (s *Spec) TotalParallelCycles() float64 {
	var t float64
	for _, ph := range s.Phases {
		t += ph.ParallelCycles
	}
	return t
}

// TotalMemoryBytes sums memory traffic over phases for one iteration.
func (s *Spec) TotalMemoryBytes() float64 {
	var t float64
	for _, ph := range s.Phases {
		t += ph.MemoryBytes
	}
	return t
}

// BWFactor returns the effective per-core bandwidth multiplier.
func (s *Spec) BWFactor() float64 {
	if s.CoreBWFactor <= 0 {
		return 1
	}
	return s.CoreBWFactor
}

// AllowedProcCounts returns the process counts the application accepts
// up to maxNodes, in ascending order. An empty ProcCounts admits every
// count 1..maxNodes.
func (s *Spec) AllowedProcCounts(maxNodes int) []int {
	return s.AppendProcCounts(nil, maxNodes)
}

// AppendProcCounts appends the admissible process counts to dst and
// returns the extended slice: the scratch-buffer variant of
// AllowedProcCounts for callers that run once per schedule event and
// must not allocate.
func (s *Spec) AppendProcCounts(dst []int, maxNodes int) []int {
	if len(s.ProcCounts) == 0 {
		for i := 1; i <= maxNodes; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	for _, n := range s.ProcCounts {
		if n >= 1 && n <= maxNodes {
			dst = append(dst, n)
		}
	}
	return dst
}

// single wraps one phase into a phase slice.
func single(ph Phase) []Phase { ph.Name = "main"; return []Phase{ph} }

// Suite returns the Table II benchmark analogues. Parameters are tuned
// against the Haswell node model so each application reproduces its
// paper scalability class (validated by the classification tests and the
// Fig 6 experiment).
func Suite() []*Spec {
	return []*Spec{
		BTMZ(), LUMZ(), SPMZ(), CoMD(), AMG(),
		MiniAero(), MiniMD(), TeaLeaf(), CloverLeaf128(), CloverLeaf16(),
	}
}

// SuiteByName returns the named suite member or an error.
func SuiteByName(name string) (*Spec, error) {
	candidates := append(Suite(), EP(), Stream(), SP())
	candidates = append(candidates, ExtendedSuite()...)
	for _, s := range candidates {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown application %q", name)
}

// BTMZ models the NPB multi-zone block tri-diagonal solver, class C:
// compute-dominated and logarithmic. The exch_qbc boundary-exchange
// phase scales poorly and caps whole-application scalability beyond
// half-core concurrency (paper §V-B1).
func BTMZ() *Spec {
	return &Spec{
		Name: "bt-mz.C", Pattern: "compute", PaperClass: Logarithmic,
		Iterations: 200, ProfileIterations: 4,
		Phases: []Phase{
			{Name: "solve", ParallelCycles: 34, MemoryBytes: 40,
				SyncCoeff: 0.015, Overlap: 0.75},
			{Name: "exch_qbc", SerialCycles: 0.25, ParallelCycles: 4,
				MemoryBytes: 14, SyncCoeff: 0.10, ContentionCoeff: 0.002,
				Overlap: 0.3},
		},
		CommBytes: 0.35, SurfaceExp: 2.0 / 3.0, CommLatFactor: 2,
		SharedData: true, RemoteFrac: 0.30,
		CoreBWFactor: 0.85,
		ICacheMPKI:   1.8, IPC: 1.6,
	}
}

// LUMZ models the NPB multi-zone LU solver, class C: compute/memory,
// logarithmic with an earlier inflection (pipelined wavefront limits).
func LUMZ() *Spec {
	return &Spec{
		Name: "lu-mz.C", Pattern: "compute/memory", PaperClass: Logarithmic,
		Iterations: 250, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.3, ParallelCycles: 30, MemoryBytes: 58,
			SyncCoeff: 0.05, Overlap: 0.55,
		}),
		CommBytes: 0.3, SurfaceExp: 2.0 / 3.0, CommLatFactor: 3,
		SharedData: true, RemoteFrac: 0.25,
		CoreBWFactor: 0.95,
		ICacheMPKI:   2.4, IPC: 1.3,
	}
}

// SPMZ models the NPB multi-zone scalar penta-diagonal solver, class C:
// compute/memory and parabolic — synchronisation and working-set
// contention make all-core runs slower than half-core runs.
func SPMZ() *Spec {
	return &Spec{
		Name: "sp-mz.C", Pattern: "compute/memory", PaperClass: Parabolic,
		Iterations: 200, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.2, ParallelCycles: 26, MemoryBytes: 46,
			SyncCoeff: 0.06, ContentionCoeff: 0.007, Overlap: 0.5,
		}),
		CommBytes: 0.4, SurfaceExp: 2.0 / 3.0, CommLatFactor: 3,
		SharedData: true, RemoteFrac: 0.35,
		CoreBWFactor: 1.1,
		ICacheMPKI:   2.1, IPC: 1.2,
	}
}

// CoMD models the classical molecular-dynamics proxy (-n 240^3):
// compute-bound and linear.
func CoMD() *Spec {
	return &Spec{
		Name: "comd", Pattern: "compute", PaperClass: Linear,
		Iterations: 100, ProfileIterations: 4,
		Phases: single(Phase{
			ParallelCycles: 60, MemoryBytes: 6,
			SyncCoeff: 0.008, Overlap: 0.9,
		}),
		CommBytes: 0.12, SurfaceExp: 2.0 / 3.0, CommLatFactor: 1,
		ICacheMPKI: 0.7, IPC: 2.2,
	}
}

// AMG models the algebraic multigrid solver (-n 300^3): mixed
// compute/memory but still linear on one node.
func AMG() *Spec {
	return &Spec{
		Name: "amg", Pattern: "compute/memory", PaperClass: Linear,
		Iterations: 120, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.1, ParallelCycles: 48, MemoryBytes: 26,
			SyncCoeff: 0.012, Overlap: 0.85,
		}),
		CommBytes: 0.3, SurfaceExp: 2.0 / 3.0, CommLatFactor: 2,
		ICacheMPKI: 1.1, IPC: 1.7,
	}
}

// MiniAero models the compressible Navier-Stokes proxy: compute pattern,
// parabolic (fine-grained locking on face fluxes).
func MiniAero() *Spec {
	return &Spec{
		Name: "miniaero", Pattern: "compute", PaperClass: Parabolic,
		Iterations: 150, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.3, ParallelCycles: 30, MemoryBytes: 16,
			SyncCoeff: 0.10, ContentionCoeff: 0.011, Overlap: 0.7,
		}),
		CommBytes: 0.2, SurfaceExp: 2.0 / 3.0, CommLatFactor: 2,
		SharedData: true, RemoteFrac: 0.3,
		ICacheMPKI: 1.5, IPC: 1.4,
	}
}

// MiniMD models the molecular-dynamics mini-app: compute, linear.
func MiniMD() *Spec {
	return &Spec{
		Name: "minimd", Pattern: "compute", PaperClass: Linear,
		Iterations: 100, ProfileIterations: 4,
		Phases: single(Phase{
			ParallelCycles: 52, MemoryBytes: 8,
			SyncCoeff: 0.01, Overlap: 0.9,
		}),
		CommBytes: 0.1, SurfaceExp: 2.0 / 3.0, CommLatFactor: 1,
		ICacheMPKI: 0.8, IPC: 2.0,
	}
}

// TeaLeaf models the linear heat-conduction solver (Tea10.in):
// compute/memory, parabolic — CG iterations with heavy reductions.
func TeaLeaf() *Spec {
	return &Spec{
		Name: "tealeaf", Pattern: "compute/memory", PaperClass: Parabolic,
		Iterations: 180, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.25, ParallelCycles: 22, MemoryBytes: 50,
			SyncCoeff: 0.09, ContentionCoeff: 0.008, Overlap: 0.45,
		}),
		CommBytes: 0.35, SurfaceExp: 2.0 / 3.0, CommLatFactor: 3,
		SharedData: true, RemoteFrac: 0.4,
		CoreBWFactor: 1.15,
		ICacheMPKI:   1.9, IPC: 1.1,
	}
}

// CloverLeaf128 models the compressible Euler solver on the larger
// clover128_short.in input: compute/memory, logarithmic.
func CloverLeaf128() *Spec {
	return &Spec{
		Name: "cloverleaf.128", Pattern: "compute/memory", PaperClass: Logarithmic,
		Iterations: 160, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.2, ParallelCycles: 36, MemoryBytes: 72,
			SyncCoeff: 0.03, Overlap: 0.5,
		}),
		CommBytes: 0.3, SurfaceExp: 0.5, CommLatFactor: 2,
		CoreBWFactor: 1.45,
		ICacheMPKI:   1.3, IPC: 1.4,
	}
}

// CloverLeaf16 models the smaller clover16.in input, whose tighter
// working set saturates bandwidth earlier — the paper includes both to
// show input parameters change the coordination decision.
func CloverLeaf16() *Spec {
	return &Spec{
		Name: "cloverleaf.16", Pattern: "compute/memory", PaperClass: Logarithmic,
		Iterations: 160, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.35, ParallelCycles: 18, MemoryBytes: 44,
			SyncCoeff: 0.07, Overlap: 0.5,
		}),
		CommBytes: 0.25, SurfaceExp: 0.5, CommLatFactor: 3,
		SharedData: true, RemoteFrac: 0.2,
		CoreBWFactor: 1.1,
		ICacheMPKI:   1.6, IPC: 1.2,
	}
}

// EP models the NPB embarrassingly-parallel kernel used in Figure 3a:
// pure compute, perfectly linear.
func EP() *Spec {
	return &Spec{
		Name: "ep", Pattern: "compute", PaperClass: Linear,
		Iterations: 60, ProfileIterations: 4,
		Phases: single(Phase{
			ParallelCycles: 70, MemoryBytes: 1.5,
			SyncCoeff: 0.003, Overlap: 0.95,
		}),
		CommBytes: 0.01, SurfaceExp: 1, CommLatFactor: 1,
		ICacheMPKI: 0.3, IPC: 2.6,
	}
}

// Stream models the memory-bandwidth benchmark used in Figure 3b:
// bandwidth-bound, logarithmic with a very early inflection.
func Stream() *Spec {
	return &Spec{
		Name: "stream", Pattern: "memory", PaperClass: Logarithmic,
		Iterations: 80, ProfileIterations: 4,
		Phases: single(Phase{
			ParallelCycles: 7, MemoryBytes: 90,
			SyncCoeff: 0.01, Overlap: 0.15,
		}),
		CommBytes: 0, SurfaceExp: 1, CommLatFactor: 0,
		CoreBWFactor: 1.8,
		ICacheMPKI:   0.2, IPC: 0.8,
	}
}

// SP models the single-zone NPB scalar penta-diagonal solver used in
// Figures 1 and 3c: compute/memory, parabolic.
func SP() *Spec {
	return &Spec{
		Name: "sp", Pattern: "compute/memory", PaperClass: Parabolic,
		Iterations: 150, ProfileIterations: 4,
		Phases: single(Phase{
			SerialCycles: 0.3, ParallelCycles: 24, MemoryBytes: 42,
			SyncCoeff: 0.07, ContentionCoeff: 0.009, Overlap: 0.5,
		}),
		CommBytes: 0.35, SurfaceExp: 2.0 / 3.0, CommLatFactor: 3,
		SharedData: true, RemoteFrac: 0.35,
		CoreBWFactor: 1.1,
		ICacheMPKI:   2.0, IPC: 1.2,
	}
}

// TrainingSet generates n synthetic applications spanning the parameter
// space (NPB/HPCC/STREAM/PolyBench-inspired), used to train the
// inflection-point regression. Deterministic in seed.
func TrainingSet(n int, seed uint64) []*Spec {
	r := rng.New(seed)
	out := make([]*Spec, 0, n)
	for i := 0; i < n; i++ {
		kind := i % 3 // balance the three classes
		ph := Phase{
			SerialCycles:   r.Range(0, 0.5),
			ParallelCycles: r.Range(15, 70),
			SyncCoeff:      r.Range(0.005, 0.06),
			Overlap:        r.Range(0.3, 0.9),
		}
		sp := &Spec{
			Iterations: 100, ProfileIterations: 4,
			CommBytes: r.Range(0.05, 0.4), SurfaceExp: 2.0 / 3.0,
			CommLatFactor: r.Range(0.5, 3),
			ICacheMPKI:    r.Range(0.2, 3), IPC: r.Range(0.8, 2.6),
		}
		switch kind {
		case 0: // linear: compute-dominated, negligible contention
			ph.MemoryBytes = ph.ParallelCycles * r.Range(0.05, 0.35)
			sp.PaperClass = Linear
			sp.Pattern = "compute"
		case 1: // logarithmic: bandwidth saturation
			ph.MemoryBytes = ph.ParallelCycles * r.Range(1.2, 2.6)
			ph.Overlap = r.Range(0.3, 0.65)
			sp.PaperClass = Logarithmic
			sp.Pattern = "compute/memory"
			sp.SharedData = r.Float64() < 0.5
			sp.RemoteFrac = r.Range(0.1, 0.4)
			// Streaming access patterns saturate socket bandwidth with
			// fewer cores; cover early inflection points (STREAM-like)
			// alongside late ones.
			sp.CoreBWFactor = r.Range(0.7, 2.0)
			if sp.CoreBWFactor > 1.5 {
				ph.MemoryBytes = ph.ParallelCycles * r.Range(2.5, 6.0)
				ph.Overlap = r.Range(0.1, 0.35)
			}
		default: // parabolic: contention term
			ph.MemoryBytes = ph.ParallelCycles * r.Range(0.4, 2.0)
			ph.ContentionCoeff = r.Range(0.006, 0.03)
			ph.SyncCoeff = r.Range(0.04, 0.12)
			sp.PaperClass = Parabolic
			sp.Pattern = "compute/memory"
			sp.SharedData = true
			sp.RemoteFrac = r.Range(0.2, 0.45)
		}
		sp.Name = fmt.Sprintf("train-%02d-%s", i, sp.PaperClass)
		sp.Phases = single(ph)
		out = append(out, sp)
	}
	return out
}
