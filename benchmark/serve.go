package main

// The two serving workloads drive an in-process server.Server over
// loopback HTTP. serve-submit offers single-job submissions on a
// cluster that never queues, so nearly all the work is the request
// path; serve-churn keeps about 2,000 jobs queued while batches,
// cancels and reads compete for the scheduler lock.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/workload"
)

// Serving cluster: 8 Haswell nodes under a 1200 W bound, the daemon's
// defaults.
const (
	serveNodes  = 8
	serveBoundW = 1200.0
	hipri       = 10
)

// serveApps is the application mix of both serving workloads.
var serveApps = []string{"comd", "amg", "minimd"}

func serveCluster() *hw.Cluster { return hw.NewCluster(serveNodes, hw.HaswellSpec(), 0.02, 42) }

func serveSchedConfig() jobsched.Config {
	return jobsched.Config{
		Bound: serveBoundW, Policy: jobsched.AggressiveBackfill,
		Reallocate: true, Preempt: true,
	}
}

// serving is one serving workload: the schedules it sends and how its
// end-to-end metrics are read from them.
type serving struct {
	timescale float64
	// setup is sent by every set-up, after the server starts; scale
	// sizes it.
	setup func(r *rng.Source, ids *jobIDs, scale float64) []op
	// warm, when set, is sent after set-up and not timed.
	warm func(r *rng.Source, ids *jobIDs, scale float64) []op
	// loop is the measured open-loop schedule; setup is what the same
	// set-up sent.
	loop func(r *rng.Source, ids *jobIDs, setup []op, seconds float64) []op
	// headline selects the requests whose median is p50_ms.
	headline func(*op) bool
	// sat, when set, is a closed-loop step after the loop whose rate is
	// rate_per_s; satShare of the measured seconds go to it.
	sat      func(r *rng.Source, ids *jobIDs, seconds float64) []op
	satShare float64
}

// instance is one running server behind its load generator, with the
// ledger of what it accepted.
type instance struct {
	srv   *server.Server
	gen   *loadGen
	led   *ledger
	hs    *http.Server  // the traced listener, if any
	spans *handlerSpans // its handler records
	epoch time.Time     // wall time of virtual time 0
	scale float64       // virtual seconds per wall second
}

// startServer builds a scheduler and server, starts serving and sends
// the set-up requests. With a tracer the requests go to a second
// listener that wraps the handler in spans, under span ids reserved
// from base.
func startServer(w serving, tr *tracer, base int64, setup []op, o *outcome) (*instance, error) {
	cl := serveCluster()
	clip, err := core.New(cl)
	if err != nil {
		return nil, err
	}
	sched, err := jobsched.New(cl, clip, serveSchedConfig())
	if err != nil {
		return nil, err
	}
	srv, err := server.New(sched, server.Options{Timescale: w.timescale})
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	if tr != nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	in := &instance{srv: srv, led: newLedger(), epoch: time.Now(), scale: w.timescale}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	url := "http://" + addr
	if tr != nil {
		in.spans = &handlerSpans{t: tr, next: srv.Handler(), base: base}
		in.hs = &http.Server{Handler: in.spans}
		go in.hs.Serve(ln)
		url = "http://" + ln.Addr().String()
	}
	in.gen = newLoadGen(url)
	if tr != nil {
		in.gen.traceTo(tr, base)
	}
	res, _ := in.send(setup, o)
	for k := range res {
		if !res[k].ok() {
			return nil, errors.Join(fmt.Errorf("set-up %s: HTTP %d", setup[k].kind, res[k].code), in.stop(o))
		}
	}
	return in, nil
}

// send runs a schedule, records it in the ledger and returns the
// results with the number of failed requests.
func (in *instance) send(ops []op, o *outcome) ([]result, int) {
	res := in.gen.run(ops)
	in.gen.offset += len(ops)
	return res, in.led.record(ops, res, o)
}

// stop drains the scheduler, checks the final statuses against the
// ledger and closes every listener.
func (in *instance) stop(o *outcome) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	in.gen.close()
	final, err := in.srv.Drain(ctx)
	if err == nil {
		in.led.settle(final, o)
	}
	if in.hs != nil {
		err = errors.Join(err, in.hs.Shutdown(ctx))
	}
	if err = errors.Join(err, in.srv.Close(ctx)); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

// runServing runs a serving workload: the end-to-end metrics with
// tracing off or, with tracing on, the per-layer metrics.
func runServing(w serving, cfg config, o *outcome) error {
	r := rng.New(cfg.seed)
	ids := &jobIDs{prefix: fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)}
	if cfg.trace {
		return traceServing(w, cfg, r, ids, o)
	}

	// Every schedule is generated before the first request is sent.
	setups := make([][]op, cfg.setups)
	for i := range setups {
		setups[i] = w.setup(r, ids, cfg.scale)
	}
	var warm, sat []op
	if w.warm != nil {
		warm = w.warm(r, ids, cfg.scale)
	}
	loopSecs := cfg.seconds
	if w.sat != nil {
		loopSecs = (1 - w.satShare) * cfg.seconds
		sat = w.sat(r, ids, w.satShare*cfg.seconds)
	}
	loop := w.loop(r, ids, setups[len(setups)-1], loopSecs)

	// Every set-up but the last is timed and stopped; the last is kept.
	var in *instance
	var setupSecs []float64
	for i, ops := range setups {
		began := time.Now()
		s, err := startServer(w, nil, 0, ops, o)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(began).Seconds())
		if i == len(setups)-1 {
			in = s
		} else if err := s.stop(o); err != nil {
			return err
		}
	}
	o.set("setup_s", median(setupSecs))
	in.send(warm, o)

	runtime.GC() // the measured step starts from a collected heap
	cpu0 := cpuTime()
	res, failed := in.send(loop, o)
	cpu := cpuTime() - cpu0
	o.attempted += len(loop)
	o.failed += failed
	lat, head := latencies(loop, res, nil), latencies(loop, res, w.headline)
	o.set("p50_ms", median(head))
	o.set("cpu_us_per_op", us(cpu)/float64(len(loop)))
	o.logf("loop: all ms %s; headline ms %s; late ms %s",
		summarize(lat), summarize(head), summarize(lateness(loop, res)))
	logRoutes(o, loop, res)

	if sat == nil {
		o.set("rate_per_s", float64(answered(res))/res[len(res)-1].done.Seconds())
	} else {
		res, failed := in.send(sat, o)
		o.attempted += len(sat)
		o.failed += failed
		rate := float64(answered(res)) / res[len(res)-1].done.Seconds()
		o.set("rate_per_s", rate)
		o.logf("saturation, %d connections: %.0f req/s, response ms %s",
			in.gen.conns, rate, summarize(responseTimes(res)))
	}
	return in.stop(o)
}

// traceServing sends one schedule to a fresh plain server, then a
// schedule of the same shape, under other job ids, to a fresh traced
// one. The two headline medians give the trace's overhead, and the
// traced server gives the per-layer metrics.
func traceServing(w serving, cfg config, r *rng.Source, ids *jobIDs, o *outcome) error {
	type inputs struct{ setup, warm, loop []op }
	gen := func() inputs {
		var in inputs
		in.setup = w.setup(r, ids, cfg.scale)
		if w.warm != nil {
			in.warm = w.warm(r, ids, cfg.scale)
		}
		in.loop = w.loop(r, ids, in.setup, cfg.seconds/2)
		return in
	}
	plainIn, tracedIn := gen(), gen()

	plain, err := startServer(w, nil, 0, plainIn.setup, o)
	if err != nil {
		return err
	}
	plain.send(plainIn.warm, o)
	runtime.GC()
	plainRes, _ := plain.send(plainIn.loop, o)
	if err := plain.stop(o); err != nil {
		return err
	}

	tr := newTracer()
	sent := append(append(append([]op(nil), tracedIn.setup...), tracedIn.warm...), tracedIn.loop...)
	base := tr.reserve(len(sent))
	in, err := startServer(w, tr, base, tracedIn.setup, o)
	if err != nil {
		return err
	}
	in.send(tracedIn.warm, o)
	loop := tracedIn.loop
	runtime.GC()
	c0 := snapshot()
	res, failed := in.send(loop, o)
	c1 := snapshot()
	o.attempted += len(loop)
	o.failed += failed

	plainHead := median(latencies(plainIn.loop, plainRes, w.headline))
	o.set("trace.overhead_frac", median(latencies(loop, res, w.headline))/plainHead-1)
	o.set("serve.write_p50_ms", median(latencies(loop, res, func(p *op) bool { return p.kind.write() })))
	o.set("serve.read_p50_ms", median(latencies(loop, res, func(p *op) bool { return !p.kind.write() })))
	o.set("serve.p99_ms", p99(latencies(loop, res, nil)))
	o.set("gen.late_p99_ms", p99(lateness(loop, res)))
	logRoutes(o, loop, res)
	if err := servedLayers(o, tr, in, sent, len(sent)-len(loop), res); err != nil {
		return err
	}
	o.set("server.rejected", c1.delta(c0, "clip_http_rejected_total"))
	schedCounters(o, c0, c1)
	if err := coreReplay(o, tr, serveCluster(), mustApps(serveApps), serveBoundW); err != nil {
		return err
	}
	fedNA(o)
	if err := in.stop(o); err != nil {
		return err
	}
	return tr.write(spanFile(cfg))
}

// logRoutes writes each route's latency summary to the log.
func logRoutes(o *outcome, ops []op, res []result) {
	for k := opKind(0); k < numKinds; k++ {
		if lat := latencies(ops, res, func(p *op) bool { return p.kind == k }); len(lat) > 0 {
			o.logf("  %-7s ms %s", k, summarize(lat))
		}
	}
}

// jobIDs names jobs <workload>-<seed>-<n>, unique within a run.
type jobIDs struct {
	prefix string
	n      int
}

func (j *jobIDs) next() string {
	j.n++
	return fmt.Sprintf("%s-%d", j.prefix, j.n)
}

// submitOps builds single-job submissions at rate for seconds.
func submitOps(r *rng.Source, ids *jobIDs, rate, seconds float64) []op {
	due := dueTimes(r, rate, seconds)
	ops := make([]op, len(due))
	for i, d := range due {
		ops[i] = op{due: d, kind: kSubmit, dep: -1, jobs: []server.SubmitRequest{{
			ID: ids.next(), App: serveApps[r.Intn(len(serveApps))],
		}}}
		ops[i].encode()
	}
	return ops
}

// batchOp builds one batch submission of n jobs, a share of them at
// high priority.
func batchOp(r *rng.Source, ids *jobIDs, due time.Duration, n int, hiFrac float64) op {
	o := op{due: due, kind: kBatch, dep: -1, jobs: make([]server.SubmitRequest, n)}
	for i := range o.jobs {
		o.jobs[i] = server.SubmitRequest{ID: ids.next(), App: serveApps[r.Intn(len(serveApps))]}
		if r.Float64() < hiFrac {
			o.jobs[i].Priority = hipri
		}
	}
	o.encode()
	return o
}

// ledger checks a serving run: every accepted job is accounted for
// after Drain, no response is a server error, and every sampled
// cluster snapshot keeps allocated plus reserved power within the
// bound.
type ledger struct {
	accepted  map[string]bool
	cancelled map[string]bool
	codes     map[int]int
	snapshots int
}

func newLedger() *ledger {
	return &ledger{accepted: map[string]bool{}, cancelled: map[string]bool{}, codes: map[int]int{}}
}

// record folds one schedule's results into the ledger and returns how
// many requests failed: transport errors, non-2xx responses and batch
// entries that were not created. A 5xx other than 503 (busy or
// draining, the server's overload answer) is a failed check.
func (l *ledger) record(ops []op, res []result, o *outcome) (failed int) {
	for i := range ops {
		op, r := &ops[i], &res[i]
		l.codes[r.code]++
		if !r.ok() {
			failed++
			if r.code >= 500 && r.code != http.StatusServiceUnavailable {
				o.fail("%s %s: HTTP %d", op.kind, op.id, r.code)
			}
			continue
		}
		switch op.kind {
		case kSubmit:
			l.accepted[op.jobs[0].ID] = true
		case kBatch:
			var resp server.BatchResponseJSON
			if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Entries) != len(op.jobs) {
				o.fail("batch response: %v (%d entries for %d jobs)", err, len(resp.Entries), len(op.jobs))
				continue
			}
			for k, e := range resp.Entries {
				if e.Code == http.StatusCreated {
					l.accepted[op.jobs[k].ID] = true
					continue
				}
				failed++
				if e.Code >= 500 && e.Code != http.StatusServiceUnavailable {
					o.fail("batch entry %s: HTTP %d", op.jobs[k].ID, e.Code)
				}
			}
		case kCancel:
			l.cancelled[op.id] = true
		case kCluster:
			var cs server.ClusterJSON
			if err := json.Unmarshal(r.body, &cs); err != nil {
				o.fail("cluster response: %v", err)
				continue
			}
			l.snapshots++
			if cs.AllocW+cs.ReservedW > cs.BoundW+1e-6 {
				o.fail("cluster at %.3fs: allocated %.3f W + reserved %.3f W exceeds bound %.3f W",
					cs.NowS, cs.AllocW, cs.ReservedW, cs.BoundW)
			}
		}
	}
	return failed
}

// settle checks the final statuses Drain returned against the ledger.
func (l *ledger) settle(final []jobsched.JobStatus, o *outcome) {
	seen := make(map[string]int, len(final))
	for _, js := range final {
		seen[js.ID]++
		if !js.State.Terminal() {
			o.fail("job %s is %s after drain", js.ID, js.State)
		}
		if l.cancelled[js.ID] && js.State != jobsched.JobCancelled {
			o.fail("job %s was cancelled but ended %s", js.ID, js.State)
		}
	}
	lost := 0
	for id := range l.accepted {
		switch seen[id] {
		case 0:
			lost++
		case 1:
		default:
			o.fail("job %s listed %d times", id, seen[id])
		}
	}
	if lost > 0 {
		o.fail("%d accepted jobs lost", lost)
	}
	o.logf("checks: %d accepted, %d cancelled, %d final, %d lost, %d cluster snapshots, codes %v",
		len(l.accepted), len(l.cancelled), len(final), lost, l.snapshots, l.codes)
}

// latencies returns the due-time latencies of the ops filter accepts
// (all when nil), in milliseconds. A failed request misses every
// latency limit, so it counts as +Inf.
func latencies(ops []op, res []result, filter func(*op) bool) []float64 {
	var out []float64
	for i := range ops {
		if filter != nil && !filter(&ops[i]) {
			continue
		}
		if res[i].ok() {
			out = append(out, ms(res[i].latency(&ops[i])))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// responseTimes returns each request's send-to-response time in ms.
func responseTimes(res []result) []float64 {
	out := make([]float64, len(res))
	for i := range res {
		out[i] = ms(res[i].done - res[i].sent)
	}
	return out
}

// answered counts the 2xx responses.
func answered(res []result) int {
	n := 0
	for i := range res {
		if res[i].ok() {
			n++
		}
	}
	return n
}

// lateness returns how late the generator sent each op, in ms.
func lateness(ops []op, res []result) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		out[i] = ms(res[i].late(&ops[i]))
	}
	return out
}

// mustApps resolves application names of the serving mix.
func mustApps(names []string) []*workload.Spec {
	out := make([]*workload.Spec, len(names))
	for i, n := range names {
		s, err := workload.SuiteByName(n)
		if err != nil {
			panic(err) // the mix names suite members
		}
		out[i] = s
	}
	return out
}
