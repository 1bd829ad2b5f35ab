// Package sim executes workload models on the machine model under a
// resource configuration, producing execution time, power draw, energy
// and hardware-event counts.
//
// It replaces the paper's physical testbed: a bulk-synchronous cluster
// simulator where every iteration each participating node runs the
// application's phases under its DVFS frequency (derated by the CPU
// power cap), its memory-bandwidth ceiling (derated by the DRAM power
// cap), and its NUMA affinity; an iteration completes when the slowest
// node reaches the barrier, plus a communication term. Manufacturing
// variability enters through per-node power-efficiency coefficients, so
// a uniform cap yields heterogeneous frequencies exactly as on real
// power-constrained clusters.
package sim

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config selects the resource configuration for a run: how many nodes,
// how many cores per node, the thread mapping, and per-node power caps.
type Config struct {
	// Nodes is the number of participating nodes (first Nodes of the
	// cluster unless NodeIDs is set).
	Nodes int
	// NodeIDs optionally picks specific nodes; len must equal Nodes.
	NodeIDs []int
	// CoresPerNode is the active thread count on each node.
	CoresPerNode int
	// Affinity is the thread-to-socket mapping policy.
	Affinity workload.Affinity
	// Capped indicates power caps are enforced; when false the node
	// runs at the highest frequency with unthrottled memory.
	Capped bool
	// Budget is the per-node power budget applied to every node when
	// PerNode is nil. Ignored when Capped is false.
	Budget power.Budget
	// PerNode optionally gives each participating node its own budget
	// (inter-node coordination); len must equal Nodes.
	PerNode []power.Budget
	// FreqCap optionally limits the DVFS frequency in GHz (0 = ladder
	// maximum); applied on top of power capping.
	FreqCap float64
	// PhaseCores optionally overrides the active core count for named
	// phases (the paper's phase-wise concurrency for BT-MZ).
	PhaseCores map[string]int
	// MaxIterations truncates the run (0 = the spec's Iterations);
	// smart profiling uses a few iterations only.
	MaxIterations int
}

// Validate checks the configuration against the cluster and application.
func (c *Config) Validate(cl *hw.Cluster, app *workload.Spec) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if c.Nodes <= 0 || c.Nodes > cl.NumNodes() {
		return fmt.Errorf("sim: node count %d outside 1..%d", c.Nodes, cl.NumNodes())
	}
	if c.NodeIDs != nil && len(c.NodeIDs) != c.Nodes {
		return fmt.Errorf("sim: NodeIDs length %d != Nodes %d", len(c.NodeIDs), c.Nodes)
	}
	for _, id := range c.NodeIDs {
		if id < 0 || id >= cl.NumNodes() {
			return fmt.Errorf("sim: node id %d outside cluster", id)
		}
	}
	spec := cl.Spec()
	if c.CoresPerNode <= 0 || c.CoresPerNode > spec.Cores() {
		return fmt.Errorf("sim: cores per node %d outside 1..%d", c.CoresPerNode, spec.Cores())
	}
	if c.PerNode != nil && len(c.PerNode) != c.Nodes {
		return fmt.Errorf("sim: PerNode length %d != Nodes %d", len(c.PerNode), c.Nodes)
	}
	if c.Capped {
		if c.PerNode == nil && !c.Budget.Valid() {
			return fmt.Errorf("sim: invalid budget %v", c.Budget)
		}
		for i, b := range c.PerNode {
			if !b.Valid() {
				return fmt.Errorf("sim: invalid budget for node slot %d: %v", i, b)
			}
		}
	}
	for name, n := range c.PhaseCores {
		if n <= 0 || n > spec.Cores() {
			return fmt.Errorf("sim: phase %q cores %d outside 1..%d", name, n, spec.Cores())
		}
	}
	return nil
}

// OddConcurrencyPenalty is the relative compute-time overhead of odd
// thread counts (uneven domain decomposition and socket imbalance).
const OddConcurrencyPenalty = 0.05

// Events are the simulated hardware counters of paper Table I,
// accumulated over the run (counts, except where noted). Event 7 (the
// full/half core performance ratio) is a profile-level derived feature,
// not a counter, so it lives in the profiling report.
type Events struct {
	ICacheMisses   float64 // event0: instruction cache misses
	MemReadBytes   float64 // event1 numerator: bytes read from DRAM
	MemWriteBytes  float64 // event2 numerator: bytes written to DRAM
	L3MissLocal    float64 // event3: L3 misses served by local DRAM
	L3MissRemote   float64 // event4: L3 misses served by remote DRAM
	CyclesActive   float64 // event5: aggregate active core cycles (G)
	Instructions   float64 // event6: instructions retired (G)
	ElapsedSeconds float64 // wall time used to derive rates
}

// Add accumulates o into e.
func (e *Events) Add(o Events) {
	e.ICacheMisses += o.ICacheMisses
	e.MemReadBytes += o.MemReadBytes
	e.MemWriteBytes += o.MemWriteBytes
	e.L3MissLocal += o.L3MissLocal
	e.L3MissRemote += o.L3MissRemote
	e.CyclesActive += o.CyclesActive
	e.Instructions += o.Instructions
	e.ElapsedSeconds += o.ElapsedSeconds
}

// Rates converts counts into the per-second feature vector the
// inflection-point regression consumes (events 0-6 of Table I).
func (e *Events) Rates() []float64 {
	t := e.ElapsedSeconds
	if t <= 0 {
		t = 1
	}
	return []float64{
		e.ICacheMisses / t,
		e.MemReadBytes / t,  // read bandwidth B/s
		e.MemWriteBytes / t, // write bandwidth B/s
		e.L3MissLocal / t,
		e.L3MissRemote / t,
		e.CyclesActive / t,
		e.Instructions / t,
	}
}

// NodeResult reports one node's steady-state operating point.
type NodeResult struct {
	NodeID    int
	Freq      float64 // GHz actually sustained under the CPU cap
	CPUPower  float64 // watts drawn in the CPU domain
	MemPower  float64 // watts drawn in the DRAM domain
	IterTime  float64 // seconds per iteration (before barrier)
	MemBW     float64 // achieved DRAM bandwidth GB/s
	CapOK     bool    // the cap admitted at least the lowest frequency
	Sockets   int     // sockets hosting threads
	CoresUsed int
}

// Result is the outcome of a simulated run.
type Result struct {
	App        string
	Config     Config
	Nodes      []NodeResult
	Iterations int

	IterTime float64 // cluster-wide seconds per iteration (incl. comm)
	CommTime float64 // communication seconds per iteration
	Time     float64 // total runtime, seconds
	Energy   float64 // total joules, all participating nodes
	AvgPower float64 // cluster average watts during the run
	// ManagedPower is the cluster average over the budgeted domains
	// only (CPU+DRAM), the figure compared against power bounds.
	ManagedPower float64
	PeakCPU      float64 // highest per-node CPU-domain watts
	Events       Events  // aggregated over nodes and iterations
}

// Perf returns the figure of merit used throughout the paper
// (higher is better): reciprocal runtime.
func (r *Result) Perf() float64 {
	if r.Time <= 0 {
		return 0
	}
	return 1 / r.Time
}

// Throughput returns node-problems completed per second — the weak
// scaling figure of merit (each node carries a full problem share, so
// N nodes finishing together did N units of work).
func (r *Result) Throughput() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(len(r.Nodes)) / r.Time
}

// mRuns counts analytic simulator executions (telemetry).
var mRuns = telemetry.Default.Counter("clip_sim_runs_total",
	"analytic bulk-synchronous simulation runs")

// Run simulates app on cluster under cfg.
func Run(cl *hw.Cluster, app *workload.Spec, cfg Config) (*Result, error) {
	if err := cfg.Validate(cl, app); err != nil {
		return nil, err
	}
	mRuns.Inc()
	spec := cl.Spec()
	iters := app.Iterations
	if cfg.MaxIterations > 0 && cfg.MaxIterations < iters {
		iters = cfg.MaxIterations
	}
	ids := cfg.NodeIDs
	if ids == nil {
		ids = make([]int, cfg.Nodes)
		for i := range ids {
			ids[i] = i
		}
	}

	res := &Result{App: app.Name, Config: cfg, Iterations: iters}
	var slowest float64
	var totalPower, managedPower float64
	var events Events
	for slot, id := range ids {
		node := cl.Nodes[id]
		budget := cfg.Budget
		if cfg.PerNode != nil {
			budget = cfg.PerNode[slot]
		}
		var ev Events
		nr := runNode(spec, node, app, &cfg, budget, &ev)
		res.Nodes = append(res.Nodes, nr)
		if nr.IterTime > slowest {
			slowest = nr.IterTime
		}
		if nr.CPUPower > res.PeakCPU {
			res.PeakCPU = nr.CPUPower
		}
		totalPower += nr.CPUPower + nr.MemPower + spec.OtherPower
		managedPower += nr.CPUPower + nr.MemPower
		events.Add(ev)
	}

	res.CommTime = CommTimeFor(cl, app, cfg.Nodes)
	res.IterTime = slowest + res.CommTime
	res.Time = res.IterTime * float64(iters)
	res.AvgPower = totalPower
	res.ManagedPower = managedPower
	res.Energy = totalPower * res.Time

	// Scale per-iteration events to the whole run.
	scale := float64(iters)
	events.ICacheMisses *= scale
	events.MemReadBytes *= scale
	events.MemWriteBytes *= scale
	events.L3MissLocal *= scale
	events.L3MissRemote *= scale
	events.CyclesActive *= scale
	events.Instructions *= scale
	events.ElapsedSeconds = res.Time
	res.Events = events
	return res, nil
}

// runNode computes one node's steady-state per-iteration time and
// power. When ev is non-nil the node's per-iteration events are added
// to it (Run passes a zero Events per node); when ev is nil the
// CPU-energy and event bookkeeping is skipped, leaving CPUPower zero —
// the allocation-free path EvalTime takes, which reads only IterTime,
// MemPower and CapOK.
func runNode(spec *hw.NodeSpec, node *hw.Node, app *workload.Spec, cfg *Config, budget power.Budget, ev *Events) NodeResult {
	nDefault := cfg.CoresPerNode
	shard := 1.0 / float64(cfg.Nodes)
	if app.Scaling == workload.WeakScaling {
		// Weak scaling: each node keeps the single-node problem share.
		shard = 1
	}

	// The frequency is solved for the largest core count any phase
	// uses: RAPL must hold at peak draw.
	maxCores := nDefault
	for _, n := range cfg.PhaseCores {
		if n > maxCores {
			maxCores = n
		}
	}
	maxSockets := SocketsUsedFor(spec, maxCores, cfg.Affinity)

	f := spec.FMax()
	capOK := true
	dutyPower := 0.0
	if cfg.Capped {
		var pDraw float64
		f, pDraw, capOK = power.EffectiveFreq(spec, maxCores, maxSockets, budget.CPU, node.PowerEff)
		if !capOK {
			// Duty-cycled below the DVFS range: the CPU domain draws
			// the cap itself regardless of phase composition.
			dutyPower = pDraw
		}
	}
	if cfg.FreqCap > 0 {
		f = math.Min(f, spec.NearestFreq(cfg.FreqCap))
	}

	var iterTime, memBytesTotal, cpuEnergyW float64
	for _, ph := range app.Phases {
		n := nDefault
		if o, ok := cfg.PhaseCores[ph.Name]; ok {
			n = o
		}
		sockets := SocketsUsedFor(spec, n, cfg.Affinity)
		rf := RemoteFractionFor(app, sockets, cfg.Affinity)
		bwCeil := BandwidthCeiling(spec, app, n, sockets, f, cfg.Capped, budget.Mem)
		tPhase, bytes := PhaseTime(ph, n, f, shard, bwCeil, rf, spec.RemotePenalty)
		iterTime += tPhase
		memBytesTotal += bytes
		if ev == nil {
			continue
		}

		// CPU energy contribution of this phase at its core count.
		if capOK {
			cpuEnergyW += power.CPUPower(spec, n, sockets, f, node.PowerEff) * tPhase
		} else {
			cpuEnergyW += dutyPower * tPhase
		}

		// Per-iteration events for this phase on this node.
		contCycles := ph.ContentionCoeff * float64(n) * float64(n) * shard
		instr := (ph.SerialCycles + ph.ParallelCycles*shard + contCycles) * app.IPC // G instructions
		lineBytes := 64.0
		l3 := bytes * 1e9 / lineBytes
		ev.Instructions += instr
		ev.ICacheMisses += instr * app.ICacheMPKI * 1e6 // MPKI * Ginstr -> misses
		ev.MemReadBytes += 0.6 * bytes * 1e9
		ev.MemWriteBytes += 0.4 * bytes * 1e9
		ev.L3MissLocal += l3 * (1 - rf)
		ev.L3MissRemote += l3 * rf
		ev.CyclesActive += tPhase * f * float64(n) // G cycles
	}

	avgBW := 0.0
	if iterTime > 0 {
		avgBW = memBytesTotal / iterTime
	}
	cpuPower := 0.0
	if ev != nil && iterTime > 0 {
		cpuPower = cpuEnergyW / iterTime
		ev.ElapsedSeconds += iterTime
	}

	return NodeResult{
		NodeID:    node.ID,
		Freq:      f,
		CPUPower:  cpuPower,
		MemPower:  power.MemPowerAt(spec, maxSockets, avgBW),
		IterTime:  iterTime,
		MemBW:     avgBW,
		CapOK:     capOK,
		Sockets:   maxSockets,
		CoresUsed: maxCores,
	}
}

// SweepCores measures single-node performance for every core count in
// 1..maxCores with the given affinity and (optional) cap, returning
// runtimes indexed by cores-1. Used for ground-truth inflection points
// and the scalability figures.
func SweepCores(cl *hw.Cluster, app *workload.Spec, maxCores int, aff workload.Affinity, capped bool, budget power.Budget) ([]float64, error) {
	times := make([]float64, maxCores)
	for n := 1; n <= maxCores; n++ {
		cfg := Config{Nodes: 1, CoresPerNode: n, Affinity: aff, Capped: capped, Budget: budget}
		r, err := EvalTime(cl, app, cfg)
		if err != nil {
			return nil, err
		}
		times[n-1] = r.Time
	}
	return times, nil
}
