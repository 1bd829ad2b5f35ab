package main

// Per-layer measurements shared by the workloads: the server-side
// breakdown of a traced serving phase (handler spans joined to client
// spans and to a replay of the same op sequence on a bare
// jobsched.Online), the telemetry counters each layer keeps, and a
// replay of core.CLIP.Schedule and sim.EvalTime over the workload's
// application mix.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// replayMetric names the jobsched call each route makes.
var replayMetric = [numKinds]string{
	kSubmit: "jobsched.submit_us", kBatch: "jobsched.submit_batch_us",
	kCancel: "jobsched.cancel_us", kStatus: "jobsched.status_us",
	kCluster: "jobsched.cluster_us", kList: "jobsched.jobs_us",
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// servedLayers derives the server and jobsched metrics of a traced
// serving phase. ops holds every op sent to the traced server, in
// index order; the measured phase is ops[base:base+len(res)] with
// results res.
func servedLayers(o *outcome, tr *tracer, in *instance, ops []op, base int, res []result) error {
	order := in.spans.served()
	measured := func(k int) bool { return k >= base && k < base+len(res) }

	handler := make([][]float64, numKinds)
	var net []float64
	hdur := make(map[int]time.Duration, len(res))
	for _, h := range order {
		if !measured(h.op) {
			continue
		}
		d := h.end.Sub(h.start)
		hdur[h.op] = d
		handler[h.route] = append(handler[h.route], ms(d))
		r := &res[h.op-base]
		net = append(net, ms(r.done-r.sent-d))
	}
	for k := opKind(0); k < numKinds; k++ {
		o.set("server."+k.String()+".handler_p50_ms", summarize(handler[k]).P50)
	}
	o.set("net.p50_ms", summarize(net).P50)

	// Replay the served sequence against a bare jobsched.Online, at the virtual
	// time each request reached the server, to split handler time into
	// the server's own work and the scheduler calls it made: the bridge
	// catch-up (Advance) and the route's own call.
	sched, err := jobsched.New(serveCluster(), nil, serveSchedConfig())
	if err != nil {
		return err
	}
	drv, err := sched.Online()
	if err != nil {
		return err
	}
	specs := map[string]*workload.Spec{}
	for i, s := range mustApps(serveApps) {
		specs[serveApps[i]] = s
	}
	replay := make([][]float64, numKinds)
	var advance, self []float64
	errs := 0
	for _, h := range order {
		op := &ops[h.op]
		var adv time.Duration
		if vt := h.start.Sub(in.epoch).Seconds() * in.scale; vt > drv.Now() {
			adv = tr.timed(h.span, int64(h.op), "jobsched.advance", func() {
				if drv.Advance(vt) != nil {
					errs++
				}
			})
			if measured(h.op) {
				advance = append(advance, us(adv))
			}
		}
		d := tr.timed(h.span, int64(h.op), "jobsched."+op.kind.String(), func() {
			if !replayOp(drv, op, specs) {
				errs++
			}
		})
		if measured(h.op) {
			replay[op.kind] = append(replay[op.kind], us(d))
			self = append(self, ms(hdur[h.op]-adv-d))
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		o.set(replayMetric[k], summarize(replay[k]).P50)
	}
	o.set("jobsched.advance_us", summarize(advance).P50)
	o.set("server.self_p50_ms", summarize(self).P50)
	o.logf("replay: %d ops on a bare jobsched.Online, %d returned errors", len(order), errs)
	return nil
}

// replayOp makes the jobsched call the server makes for op and reports
// whether it succeeded.
func replayOp(drv *jobsched.Online, op *op, specs map[string]*workload.Spec) bool {
	var err error
	switch op.kind {
	case kSubmit:
		j := op.jobs[0]
		_, err = drv.SubmitPri(j.ID, specs[j.App], j.Priority)
	case kBatch:
		subs := make([]jobsched.Submission, len(op.jobs))
		for i, j := range op.jobs {
			subs[i] = jobsched.Submission{ID: j.ID, App: specs[j.App], Priority: j.Priority}
		}
		for _, r := range drv.SubmitBatch(subs) {
			if r.Err != nil {
				err = r.Err
			}
		}
	case kCancel:
		if _, err = drv.Cancel(op.id); err == nil {
			_, err = drv.Status(op.id)
		}
	case kStatus:
		_, err = drv.Status(op.id)
	case kCluster:
		drv.Cluster()
	case kList:
		drv.Jobs()
	}
	return err == nil
}

// schedCounters reports the counters of jobsched, core, coordinator,
// recommend, profile, sim and des over a phase.
func schedCounters(o *outcome, c0, c1 counters) {
	n, sum := c1.histDelta(c0, "clip_jobsched_event_seconds")
	o.set("jobsched.events", n)
	o.set("jobsched.event_s", sum)
	if n > 0 {
		o.set("jobsched.event_us", sum/n*1e6)
	} else {
		o.set("jobsched.event_us", 0)
	}
	o.set("jobsched.started", c1.delta(c0, "clip_jobsched_jobs_started_total"))
	o.set("jobsched.preempted", c1.delta(c0, "clip_jobs_preempted_total"))
	o.set("jobsched.reconcile_passes", c1.delta(c0, "clip_reconcile_passes_total"))
	o.set("jobsched.queue_depth_peak", c1.gauge("clip_jobsched_queue_depth_peak"))
	o.set("core.profiling_passes", c1.delta(c0, "clip_profiling_passes_total"))
	o.set("coordinator.schedules", c1.delta(c0, "clip_coordinator_schedules_total"))
	o.set("coordinator.rebalances", c1.delta(c0, "clip_coordinator_rebalances_total"))
	o.set("recommend.calls", c1.delta(c0, "clip_recommend_calls_total"))
	o.set("sim.evals", c1.delta(c0, "clip_sim_evals_total"))
	o.set("sim.runs", c1.delta(c0, "clip_sim_runs_total"))
	o.set("des.events", c1.delta(c0, "clip_des_events_total"))
	o.set("des.compactions", c1.delta(c0, "clip_des_compactions_total"))
	o.set("des.queue_depth_peak", c1.gauge("clip_des_queue_depth_peak"))
}

// Replay sizes of the core layer.
const (
	warmCalls = 200 // warm Schedule calls per application
	evalBatch = 100 // EvalTime calls per timed batch
	evalRuns  = 50  // timed batches per application
)

// coreReplay times core.CLIP.Schedule cold (first call per application
// on a fresh CLIP, which profiles it) and warm (cached decision), and
// sim.EvalTime on each decision's plan.
func coreReplay(o *outcome, tr *tracer, cl *hw.Cluster, apps []*workload.Spec, bound float64) error {
	var clip *core.CLIP
	var err error
	tr.timed(0, 0, "core.New", func() { clip, err = core.New(cl) })
	if err != nil {
		return err
	}
	var cold, warm, eval []float64
	for _, app := range apps {
		d := tr.timed(0, 0, "core.Schedule.cold", func() { _, err = clip.Schedule(app, bound) })
		if err != nil {
			return fmt.Errorf("core replay %s: %w", app.Name, err)
		}
		cold = append(cold, us(d))
		for i := 0; i < warmCalls; i++ {
			start := time.Now()
			_, err = clip.Schedule(app, bound)
			warm = append(warm, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("core replay %s: %w", app.Name, err)
			}
		}
		dec, err := clip.Schedule(app, bound)
		if err != nil {
			return fmt.Errorf("core replay %s: %w", app.Name, err)
		}
		cfg := dec.Plan.SimConfig()
		for i := 0; i < evalRuns; i++ {
			d := tr.timed(0, 0, "sim.EvalTime.x100", func() {
				for k := 0; k < evalBatch && err == nil; k++ {
					_, err = sim.EvalTime(cl, app, cfg)
				}
			})
			if err != nil {
				return fmt.Errorf("eval replay %s: %w", app.Name, err)
			}
			eval = append(eval, float64(d.Nanoseconds())/evalBatch)
		}
	}
	o.set("core.schedule_cold_us", summarize(cold).P50)
	o.set("core.schedule_warm_us", summarize(warm).P50)
	o.set("sim.evaltime_ns", summarize(eval).P50)
	return nil
}

// fedNA reports the federation layer as not exercised.
func fedNA(o *outcome) {
	o.na("fed.trial_s", "fed.serial_jobs_per_s", "fed.parallel_speedup",
		"fed.step_p50_us", "fed.step_p99_us", "fed.drain_s", "fed.barrier_s",
		"fed.windows", "fed.events_per_window", "fed.self_s", "fed.audits",
		"fed.leases", "fed.orphaned", "fed.evacuated", "fed.digest_mismatch",
		"fed.turnaround_vs")
}

// serveNA reports the server layer and the replayed jobsched calls as
// not exercised.
func serveNA(o *outcome) {
	for k := opKind(0); k < numKinds; k++ {
		o.na("server."+k.String()+".handler_p50_ms", replayMetric[k])
	}
	o.na("server.self_p50_ms", "net.p50_ms", "server.rejected", "gen.late_p99_ms",
		"serve.p99_ms", "serve.write_p50_ms", "serve.read_p50_ms", "jobsched.advance_us")
}
