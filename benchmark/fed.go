package main

// The federation workloads run repeated trials of one seeded arrival
// trace, each on a freshly built federation. fed-scale routes by
// locality with lending off, which RunParallel executes as one
// partition per shard; fed-chaos steps serially through lending, shard
// crashes and partitions, and preemptive priorities.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/fed"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// fedSpec is one federation workload.
type fedSpec struct {
	shards, nodes int
	budgetW       float64
	routing       fed.Policy
	lending       fed.Lending
	faults        string // shard-fault scenario; empty for none
	faultSeed     uint64
	hipriFrac     float64
	jobs          int
	gap           float64 // mean virtual seconds between arrivals
	parallel      bool    // RunParallel(nproc) rather than Run
	// nondeterministic marks the workload whose trial digests are known
	// to differ between identical trials (README.md, "Findings"): a
	// mismatch is counted there and is a failed check everywhere else.
	nondeterministic bool
}

var (
	fedScale = fedSpec{
		shards: 64, nodes: 4, budgetW: 400, routing: fed.Locality,
		jobs: 65536, gap: 0.25, parallel: true,
	}
	fedChaos = fedSpec{
		shards: 64, nodes: 4, budgetW: 400, routing: fed.LeastLoaded,
		lending: fed.Lending{Enabled: true, TTL: 240, QuantumW: 60},
		faults:  "crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60", faultSeed: 9,
		hipriFrac: 0.2, jobs: 8192, gap: 1, nondeterministic: true,
	}
)

func runFedScale(cfg config, o *outcome) error { return runFed(fedScale, cfg, o) }
func runFedChaos(cfg config, o *outcome) error { return runFed(fedChaos, cfg, o) }

// arrival is one job of the generated trace.
type arrival struct {
	t   float64
	id  string
	app *workload.Spec
	pri int
}

// trace generates the run's arrivals from the seed: gaps uniform on
// [0, 2*gap), applications uniform over the suite.
func (s fedSpec) trace(cfg config) []arrival {
	r := rng.New(cfg.seed)
	mix := workload.Suite()
	ids := jobIDs{prefix: fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)}
	out := make([]arrival, int(math.Round(float64(s.jobs)*cfg.scale)))
	now := 0.0
	for i := range out {
		now += r.Range(0, 2*s.gap)
		out[i] = arrival{t: now, id: ids.next(), app: mix[r.Intn(len(mix))]}
		if r.Float64() < s.hipriFrac {
			out[i].pri = hipri
		}
	}
	return out
}

// build constructs a fresh federation with every arrival scheduled.
func (s fedSpec) build(arrivals []arrival) (*fed.Federation, error) {
	fc := fed.Config{Routing: s.routing, Lending: s.lending}
	if s.faults != "" {
		sc, err := fed.ParseShardScenario(s.faults)
		if err != nil {
			return nil, err
		}
		sc.Seed = s.faultSeed
		fc.ShardFaults = sc
	}
	for i := 0; i < s.shards; i++ {
		fc.Shards = append(fc.Shards, fed.ShardConfig{
			Nodes: s.nodes, BudgetW: s.budgetW, Sigma: 0.02, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true, Preempt: s.hipriFrac > 0,
		})
	}
	f, err := fed.New(fc)
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals {
		if err := f.ScheduleArrivalPri(a.t, a.id, a.app, a.id, a.pri); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// fedTrial is one finished trial.
type fedTrial struct {
	setup, run time.Duration
	cpu        time.Duration // process CPU time during run
	digests    []uint64      // one per shard
	turnaround float64       // mean over completed jobs, virtual seconds
	failed     int           // jobs that failed or were lost
}

// checkTrial verifies a finished federation: no latched failure, no audit
// violation, and every job routed and terminal as completed or failed.
func checkTrial(f *fed.Federation, runErr error, jobs int, o *outcome) fedTrial {
	var t fedTrial
	if runErr != nil {
		o.fail("federation run: %v", runErr)
	}
	if _, v := f.AuditStats(); v > 0 {
		o.fail("audit found %d violations", v)
	}
	seen, done := 0, 0
	for _, sh := range f.Shards() {
		h := fnv.New64a()
		for _, js := range sh.Online.Jobs() {
			seen++
			switch js.State {
			case jobsched.JobCompleted:
				done++
				t.turnaround += js.Finish - js.Arrival
			case jobsched.JobFailed:
				t.failed++
			default:
				o.fail("job %s is %s after the run", js.ID, js.State)
			}
			fmt.Fprintf(h, "%s %d %x %x %v\n", js.ID, js.State, math.Float64bits(js.Start), math.Float64bits(js.Finish), js.Nodes)
		}
		t.digests = append(t.digests, h.Sum64())
	}
	if seen != jobs {
		o.fail("%d of %d jobs routed", seen, jobs)
		t.failed += jobs - seen
	}
	if done > 0 {
		t.turnaround /= float64(done)
	}
	return t
}

// trial builds a federation and runs it to completion with run.
func (s fedSpec) trial(arrivals []arrival, o *outcome, run func(*fed.Federation) error) (fedTrial, error) {
	runtime.GC() // collect the last trial's federation before timing this one
	start := time.Now()
	f, err := s.build(arrivals)
	if err != nil {
		return fedTrial{}, err
	}
	built, cpu0 := time.Now(), cpuTime()
	runErr := run(f)
	end, cpu1 := time.Now(), cpuTime()
	t := checkTrial(f, runErr, len(arrivals), o)
	t.setup, t.run, t.cpu = built.Sub(start), end.Sub(built), cpu1-cpu0
	return t, nil
}

// exec runs a federation the workload's way.
func (s fedSpec) exec(f *fed.Federation) error {
	if s.parallel {
		return f.RunParallel(runtime.NumCPU())
	}
	return f.Run()
}

// minTrials is the fewest trials a run makes, however long they take.
const minTrials = 3

func runFed(s fedSpec, cfg config, o *outcome) error {
	arrivals := s.trace(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var trials []fedTrial
	var cpu time.Duration
	c0 := snapshot()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The traced run splits its time between these trials and the
		// two serial trials below.
		budget /= 2
	}
	began := time.Now()
	for len(trials) < minTrials || time.Since(began) < budget {
		var t fedTrial
		var err error
		tr.timed(0, int64(len(trials)+1), "fed.trial", func() {
			t, err = s.trial(arrivals, o, s.exec)
		})
		if err != nil {
			return err
		}
		cpu += t.cpu
		trials = append(trials, t)
	}
	c1 := snapshot()

	mismatch := 0
	var setups, runs, rates []float64
	for i, t := range trials {
		mismatch += differing(trials[0], t)
		setups = append(setups, t.setup.Seconds())
		runs = append(runs, t.run.Seconds())
		rates = append(rates, float64(len(arrivals))/t.run.Seconds())
		o.attempted += len(arrivals)
		o.failed += t.failed
		o.logf("trial %d: setup %.3f s, run %.3f s, %d jobs failed, mean turnaround %.1f vs",
			i+1, t.setup.Seconds(), t.run.Seconds(), t.failed, t.turnaround)
	}
	runSum := summarize(runs)
	if !cfg.trace {
		s.mismatches(mismatch, o)
		o.set("setup_s", median(setups))
		o.set("p50_ms", runSum.P50*1e3)
		o.set("rate_per_s", median(rates))
		o.set("cpu_us_per_op", us(cpu)/float64(len(arrivals)*len(trials)))
		return nil
	}

	o.set("fed.trial_s", runSum.P50)
	o.set("fed.turnaround_vs", trials[0].turnaround)
	n := float64(len(trials))
	windows := c1.delta(c0, "clip_fed_windows_total") / n
	o.set("fed.windows", windows)
	if windows > 0 {
		o.set("fed.events_per_window", c1.delta(c0, "clip_fed_window_events_total")/n/windows)
	} else {
		o.set("fed.events_per_window", 0)
	}
	_, barrier := c1.histDelta(c0, "clip_fed_barrier_seconds")
	o.set("fed.barrier_s", barrier/n)

	// A plain serial trial and one that drives Step and Drain itself
	// with a span per call: their ratio is the cost of tracing, and the
	// stepped trial's counters are the per-layer work of one trial.
	plain, err := s.trial(arrivals, o, (*fed.Federation).Run)
	if err != nil {
		return err
	}
	serialRun := plain.run.Seconds()
	if !s.parallel {
		serialRun = runSum.P50
	}
	o.set("fed.serial_jobs_per_s", float64(len(arrivals))/serialRun)
	if s.parallel {
		o.set("fed.parallel_speedup", serialRun/runSum.P50)
	} else {
		o.na("fed.parallel_speedup")
	}

	var steps []float64
	var drain time.Duration
	var f *fed.Federation
	s0 := snapshot()
	stepped, err := s.trial(arrivals, o, func(fd *fed.Federation) error {
		f = fd
		return stepAll(fd, tr, &steps, &drain)
	})
	if err != nil {
		return err
	}
	s1 := snapshot()
	// Run, RunParallel and a hand-driven Step loop must all produce the
	// same result.
	mismatch += differing(trials[0], plain) + differing(trials[0], stepped)
	s.mismatches(mismatch, o)
	o.set("fed.digest_mismatch", float64(mismatch))
	stepSum := summarize(steps)
	o.set("fed.step_p50_us", stepSum.P50)
	o.set("fed.step_p99_us", p99(steps))
	o.set("fed.drain_s", drain.Seconds())
	o.set("trace.overhead_frac", stepped.run.Seconds()/plain.run.Seconds()-1)
	o.logf("serial trial %.3f s; stepped trial %.3f s over %d steps (step us %s); drain %.3f s",
		plain.run.Seconds(), stepped.run.Seconds(), len(steps), stepSum, drain.Seconds())

	audits, _ := f.AuditStats()
	o.set("fed.audits", float64(audits))
	o.set("fed.leases", float64(len(f.Leases())))
	o.set("fed.orphaned", s1.delta(s0, "clip_fed_leases_orphaned_total"))
	o.set("fed.evacuated", float64(f.Evacuated()))
	schedCounters(o, s0, s1)
	_, eventS := s1.histDelta(s0, "clip_jobsched_event_seconds")
	_, barrierS := s1.histDelta(s0, "clip_fed_barrier_seconds")
	o.set("fed.self_s", stepped.run.Seconds()-eventS-barrierS)

	cl := hw.NewCluster(s.nodes, hw.HaswellSpec(), 0.02, 1000)
	if err := coreReplay(o, tr, cl, workload.Suite(), s.budgetW); err != nil {
		return err
	}
	serveNA(o)
	return tr.write(spanFile(cfg))
}

// differing counts the shards whose result digest differs between two
// trials.
func differing(a, b fedTrial) int {
	n := 0
	for k := range a.digests {
		if a.digests[k] != b.digests[k] {
			n++
		}
	}
	return n
}

// mismatches reports differing shard digests: a failed check, except on
// the workload known to be nondeterministic.
func (s fedSpec) mismatches(n int, o *outcome) {
	if n == 0 {
		return
	}
	o.logf("%d shard digests differ from trial 1", n)
	if !s.nondeterministic {
		o.fail("%d shard digests differ from trial 1", n)
	}
}

// stepAll is Run written out: Step until quiescent, then Drain, with a
// span around each call. Step durations are appended to steps in
// microseconds.
func stepAll(f *fed.Federation, tr *tracer, steps *[]float64, drain *time.Duration) error {
	op := int64(-1) // the stepped trial's spans share one op id
	for {
		start := time.Now()
		ok, err := f.Step()
		end := time.Now()
		if !ok && err == nil {
			break
		}
		tr.add(0, 0, op, "fed.Step", start, end)
		*steps = append(*steps, us(end.Sub(start)))
		if err != nil {
			return err
		}
	}
	var err error
	*drain = tr.timed(0, op, "fed.Drain", func() { err = f.Drain() })
	return err
}
