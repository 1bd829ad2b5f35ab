package des

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultControlInterval is the RAPL controller sampling period in
// seconds (real RAPL PL1 windows are in the same range).
const DefaultControlInterval = 0.02

// RunConfig configures a discrete-event run. It mirrors sim.Config but
// enforces caps with a feedback controller instead of an analytic
// solver.
type RunConfig struct {
	Nodes        int
	CoresPerNode int
	Affinity     workload.Affinity
	Capped       bool
	Budget       power.Budget
	PerNode      []power.Budget
	// ControlInterval is the RAPL sampling period (seconds);
	// DefaultControlInterval when zero.
	ControlInterval float64
	// MaxIterations truncates the run (0 = the spec's Iterations).
	MaxIterations int
	// RecordTrace captures a per-control-tick time series of node 0's
	// frequency and CPU power (controller settling analysis).
	RecordTrace bool
}

// TracePoint is one controller sample of node 0.
type TracePoint struct {
	Time  float64
	Freq  float64 // effective GHz (duty-scaled below the ladder)
	Power float64 // CPU-domain watts at the sampled operating point
}

// RunResult reports a discrete-event run.
type RunResult struct {
	Time       float64 // total runtime, virtual seconds
	Iterations int
	Energy     float64 // joules over CPU+DRAM+other
	AvgPower   float64 // cluster average watts
	// FinalFreqs are the per-node DVFS frequencies at completion
	// (steady state of the controller).
	FinalFreqs []float64
	// MaxOvershoot is the largest per-node CPU-domain power observed
	// above its cap (transient before the controller settles), watts.
	MaxOvershoot float64
	// ControlSteps counts controller invocations.
	ControlSteps int
	// Events counts processed simulation events.
	Events int
	// Trace is node 0's controller time series when RecordTrace is set.
	Trace []TracePoint
}

// nodeState tracks one node's progress through the run.
type nodeState struct {
	slot    int // index into runState.nodes: the argument of its events
	id      int
	eff     float64
	budget  power.Budget
	fIdx    int  // index into the DVFS ladder
	duty    bool // clamped below Fmin (duty-cycling)
	dutyFac float64

	phase      int     // index into app.Phases
	remaining  float64 // fraction of the current phase left [0,1]
	completion *Event
	tick       *Event // pending controller tick (capped runs)
	// phaseStartTime/phaseSpan describe the currently scheduled
	// completion so mid-phase frequency changes can carry progress over.
	phaseStartTime float64
	phaseSpan      float64

	lastUpdate float64 // virtual time of the last energy accounting
	energy     float64
	busy       bool // executing (not waiting at the barrier)
}

// Event kinds of a run. Phase completions and controller ticks carry
// the node slot as their argument.
const (
	kindPhaseDone uint16 = iota
	kindTick
	// kindBarrier is the collective after a barrier; every node then
	// starts its next iteration.
	kindBarrier
	// kindFinal is the run's last collective: it only ends the run.
	kindFinal
)

// runState carries the whole simulation and handles its events.
type runState struct {
	eng     *Engine
	cl      *hw.Cluster
	app     *workload.Spec
	cfg     RunConfig
	spec    *hw.NodeSpec
	shard   float64
	comm    float64
	nodes   []*nodeState
	arrived int
	iter    int
	iters   int
	res     *RunResult
	failure error
}

// Run executes app on cl under cfg with the discrete-event engine.
func Run(cl *hw.Cluster, app *workload.Spec, cfg RunConfig) (*RunResult, error) {
	simCfg := sim.Config{
		Nodes: cfg.Nodes, CoresPerNode: cfg.CoresPerNode, Affinity: cfg.Affinity,
		Capped: cfg.Capped, Budget: cfg.Budget, PerNode: cfg.PerNode,
		MaxIterations: cfg.MaxIterations,
	}
	if err := simCfg.Validate(cl, app); err != nil {
		return nil, err
	}
	if cfg.ControlInterval < 0 {
		return nil, fmt.Errorf("des: negative control interval")
	}
	if cfg.ControlInterval == 0 {
		cfg.ControlInterval = DefaultControlInterval
	}

	iters := app.Iterations
	if cfg.MaxIterations > 0 && cfg.MaxIterations < iters {
		iters = cfg.MaxIterations
	}

	shard := 1.0 / float64(cfg.Nodes)
	if app.Scaling == workload.WeakScaling {
		shard = 1
	}
	st := &runState{
		eng:   NewEngine(),
		cl:    cl,
		app:   app,
		cfg:   cfg,
		spec:  cl.Spec(),
		shard: shard,
		comm:  sim.CommTimeFor(cl, app, cfg.Nodes),
		iters: iters,
		res:   &RunResult{Iterations: iters},
	}
	for slot := 0; slot < cfg.Nodes; slot++ {
		node := cl.Nodes[slot]
		b := cfg.Budget
		if cfg.PerNode != nil {
			b = cfg.PerNode[slot]
		}
		ns := &nodeState{
			slot: slot, id: node.ID, eff: node.PowerEff, budget: b,
			fIdx: len(st.spec.FreqLevels) - 1, dutyFac: 1,
		}
		st.nodes = append(st.nodes, ns)
	}

	// Kick off: every node starts iteration 0; controllers sample on
	// their interval while capped.
	for _, ns := range st.nodes {
		st.startIteration(ns)
		if cfg.Capped {
			st.scheduleControl(ns)
		}
	}
	if err := st.eng.Run(); err != nil {
		return nil, err
	}
	if st.failure != nil {
		return nil, st.failure
	}

	st.res.Time = st.eng.Now()
	st.res.Events = st.eng.Steps
	var energy float64
	for _, ns := range st.nodes {
		st.accountEnergy(ns) // flush to end of run
		energy += ns.energy
		st.res.FinalFreqs = append(st.res.FinalFreqs, st.freqOf(ns))
	}
	// Unmanaged node power draws for the whole run.
	energy += float64(float64(cfg.Nodes) * st.spec.OtherPower * st.res.Time) // float64(): no FMA
	st.res.Energy = energy
	if st.res.Time > 0 {
		st.res.AvgPower = energy / st.res.Time
	}
	return st.res, nil
}

// HandleEvent implements Handler.
func (st *runState) HandleEvent(kind uint16, arg uint64) {
	switch kind {
	case kindPhaseDone:
		st.phaseDone(st.nodes[arg])
	case kindTick:
		st.controlTick(st.nodes[arg])
	case kindBarrier:
		for _, ns := range st.nodes {
			st.startIteration(ns)
		}
	}
}

// freqOf returns the node's effective frequency (duty-scaled when
// clamped below the ladder).
func (st *runState) freqOf(ns *nodeState) float64 {
	f := st.spec.FreqLevels[ns.fIdx]
	if ns.duty {
		return f * ns.dutyFac * power.DutyCycleEfficiency
	}
	return f
}

// cpuPowerOf returns the node's current CPU-domain power draw.
func (st *runState) cpuPowerOf(ns *nodeState) float64 {
	if !ns.busy {
		// Waiting at the barrier: cores spin at minimal activity.
		return st.spec.SocketBasePower * float64(st.sockets()) * ns.eff
	}
	p := power.CPUPower(st.spec, st.cfg.CoresPerNode, st.sockets(), st.spec.FreqLevels[ns.fIdx], ns.eff)
	if ns.duty {
		return math.Min(p, ns.budget.CPU)
	}
	return p
}

func (st *runState) sockets() int {
	return sim.SocketsUsedFor(st.spec, st.cfg.CoresPerNode, st.cfg.Affinity)
}

// phaseDuration returns the full duration of phase idx at the node's
// current effective frequency.
func (st *runState) phaseDuration(ns *nodeState, idx int) float64 {
	f := st.freqOf(ns)
	sockets := st.sockets()
	rf := sim.RemoteFractionFor(st.app, sockets, st.cfg.Affinity)
	bwCeil := sim.BandwidthCeiling(st.spec, st.app, st.cfg.CoresPerNode, sockets, f,
		st.cfg.Capped, ns.budget.Mem)
	t, _ := sim.PhaseTime(st.app.Phases[idx], st.cfg.CoresPerNode, f, st.shard,
		bwCeil, rf, st.spec.RemotePenalty)
	return t
}

// accountEnergy integrates node power since the last update.
func (st *runState) accountEnergy(ns *nodeState) {
	dt := st.eng.Now() - ns.lastUpdate
	if dt > 0 {
		memP := st.memPowerOf(ns)
		ns.energy += float64((st.cpuPowerOf(ns) + memP) * dt) // float64(): no FMA
		ns.lastUpdate = st.eng.Now()
	}
}

// memPowerOf estimates the node's DRAM power from the current phase's
// bandwidth demand.
func (st *runState) memPowerOf(ns *nodeState) float64 {
	sockets := st.sockets()
	if !ns.busy || ns.phase >= len(st.app.Phases) {
		return float64(sockets) * st.spec.MemBasePower
	}
	ph := st.app.Phases[ns.phase]
	t := st.phaseDuration(ns, ns.phase)
	if t <= 0 {
		return float64(sockets) * st.spec.MemBasePower
	}
	rf := sim.RemoteFractionFor(st.app, sockets, st.cfg.Affinity)
	bytes := ph.MemoryBytes * st.shard * (1 + float64(rf*st.spec.RemotePenalty)) // float64(): no FMA
	return power.MemPowerAt(st.spec, sockets, bytes/t)
}

// startIteration begins the next iteration on a node.
func (st *runState) startIteration(ns *nodeState) {
	st.accountEnergy(ns)
	ns.busy = true
	ns.phase = 0
	ns.remaining = 1
	st.schedulePhaseCompletion(ns)
}

// schedulePhaseCompletion (re)schedules the completion event of the
// node's current phase from its remaining fraction.
func (st *runState) schedulePhaseCompletion(ns *nodeState) {
	if ns.completion != nil {
		ns.completion.Cancel()
		ns.completion = nil
	}
	dur := st.phaseDuration(ns, ns.phase) * ns.remaining
	ev, err := st.eng.After(dur, st, kindPhaseDone, uint64(ns.slot))
	if err != nil {
		st.failure = err
		return
	}
	ns.completion = ev
	ns.phaseStartTime = st.eng.Now()
	ns.phaseSpan = dur
}

// phaseDone advances the node to the next phase or the barrier.
func (st *runState) phaseDone(ns *nodeState) {
	st.accountEnergy(ns)
	ns.completion = nil
	ns.phase++
	ns.remaining = 1
	if ns.phase < len(st.app.Phases) {
		st.schedulePhaseCompletion(ns)
		return
	}
	// Arrived at the barrier.
	ns.busy = false
	st.arrived++
	if st.arrived < len(st.nodes) {
		return
	}
	// Barrier complete: communication, then the next iteration. The
	// final iteration still pays its collective (result reduction), so
	// every iteration costs barrier + comm, matching the analytic model.
	st.arrived = 0
	st.iter++
	if st.iter >= st.iters {
		// The run ends with this collective: a controller tick due
		// after it would stretch the runtime and energy.
		for _, other := range st.nodes {
			if other.tick != nil {
				other.tick.Cancel()
				other.tick = nil
			}
		}
		if _, err := st.eng.After(st.comm, st, kindFinal, 0); err != nil {
			st.failure = err
		}
		return
	}
	if _, err := st.eng.After(st.comm, st, kindBarrier, 0); err != nil {
		st.failure = err
	}
}

// scheduleControl arms the node's RAPL controller tick.
func (st *runState) scheduleControl(ns *nodeState) {
	ev, err := st.eng.After(st.cfg.ControlInterval, st, kindTick, uint64(ns.slot))
	if err != nil {
		st.failure = err
		return
	}
	ns.tick = ev
}

// controlTick samples the node's CPU power and steps the DVFS ladder
// toward the cap (one step per interval, like RAPL's running-average
// throttling). It re-arms itself until the final barrier.
func (st *runState) controlTick(ns *nodeState) {
	ns.tick = nil
	st.res.ControlSteps++
	st.accountEnergy(ns)
	if st.cfg.RecordTrace && ns == st.nodes[0] {
		st.res.Trace = append(st.res.Trace, TracePoint{
			Time: st.eng.Now(), Freq: st.freqOf(ns), Power: st.cpuPowerOf(ns),
		})
	}
	capW := ns.budget.CPU
	spec := st.spec
	sockets := st.sockets()
	// float64(): no FMA of the inlined product with cur - capW below
	cur := float64(power.CPUPower(spec, st.cfg.CoresPerNode, sockets, spec.FreqLevels[ns.fIdx], ns.eff))

	changed := false
	switch {
	case cur > capW+1e-9:
		if over := cur - capW; ns.busy && over > st.res.MaxOvershoot && !ns.duty {
			st.res.MaxOvershoot = over
		}
		if ns.fIdx > 0 {
			ns.fIdx--
			changed = true
		} else {
			// Already at Fmin: duty-cycle.
			fac := capW / cur
			if fac < 0.05 {
				fac = 0.05
			}
			if !ns.duty || math.Abs(fac-ns.dutyFac) > 1e-9 {
				ns.duty = true
				ns.dutyFac = fac
				changed = true
			}
		}
	default:
		if ns.duty {
			ns.duty = false
			ns.dutyFac = 1
			changed = true
		} else if ns.fIdx < len(spec.FreqLevels)-1 {
			next := power.CPUPower(spec, st.cfg.CoresPerNode, sockets, spec.FreqLevels[ns.fIdx+1], ns.eff)
			if next <= capW+1e-9 {
				ns.fIdx++
				changed = true
			}
		}
	}

	if changed && ns.busy && ns.completion != nil {
		// Frequency changed mid-phase: carry over the remaining
		// fraction and reschedule completion at the new rate.
		elapsed := st.eng.Now() - ns.phaseStartTime
		frac := 0.0
		if ns.phaseSpan > 0 {
			frac = elapsed / ns.phaseSpan
		}
		ns.remaining *= math.Max(0, 1-frac)
		st.schedulePhaseCompletion(ns)
	}

	// Keep sampling; the final barrier cancels the pending tick.
	st.scheduleControl(ns)
}
