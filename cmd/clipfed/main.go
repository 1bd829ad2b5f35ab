// Command clipfed drives a sharded multi-cluster federation from one
// shared virtual clock: N regional scheduler shards, each an
// independent power-bounded cluster, with cross-shard power lending
// under an aggregate federation cap and a per-event invariant audit.
//
// Usage:
//
//	clipfed -shards 16 -jobs 256                       # lending on by default
//	clipfed -shards 64 -routing power-headroom
//	clipfed -shards 32 -agg-cap 12000 -lease-ttl 120   # capped federation
//	clipfed -shards 4 -lend=false -routing locality    # isolated shards
//	clipfed -shards 64 -jobs 4096 -gap 0.25 -routing locality \
//	        -lend=false -workers 4                     # partitioned replay
//	clipfed -shards 16 -shard-faults crash-mtbf=400,part-mtbf=600,seed=7 # chaos federation
//
// The run is fully deterministic: the same flags always produce
// byte-identical stdout (the per-shard table, lease ledger summary and
// invariant verdicts), which scripts/fed_smoke.sh and
// scripts/fed_chaos_smoke.sh exploit to byte-compare repeat runs.
// -workers N (N != 1) calls RunParallel (see internal/fed/parallel.go):
// with locality routing, lending off or inert and no fault stream each
// shard replays its whole timeline on a bounded worker pool; otherwise
// the run steps serially and only the final drain uses the pool. stdout
// is byte-identical for any worker count — with or without a
// shard-fault stream armed — so the flag is purely a throughput knob.
// Wall-clock timing goes to stderr so it never perturbs the comparison.
//
// -shard-faults arms the deterministic shard-level failure model
// (internal/fed/shardfaults.go): seeded shard crashes and broker-link
// partitions with timed recoveries, orphan-lease reclaim, and
// queued-job evacuation off crashed shards. SIGINT/SIGTERM trigger a
// graceful federation drain — the per-shard exit table and the audit
// verdict are still printed — mirroring clipd's drain. The process
// exits non-zero when the per-event audit found a violation. With
// -telemetry-out a JSON telemetry report (clip_fed_* counters,
// per-shard queue gauges) is written after the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fed"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options carries every knob of one clipfed run; main fills it from
// flags, tests fill it directly.
type options struct {
	shards, nodes int
	budget, sigma float64
	policyName    string
	routingName   string
	jobs          int
	meanGap       float64
	seed          uint64
	workers       int
	lend          bool
	aggCap        float64
	leaseTTL      float64
	quantum       float64
	shardFaults   string
	hipriFrac     float64
	hipri         int
	teleOut       string
	// notify arms the signal handler (disabled under tests).
	notify bool
}

func main() {
	var o options
	flag.IntVar(&o.shards, "shards", 16, "number of federated shards (1-1024)")
	flag.IntVar(&o.nodes, "nodes", 4, "nodes per shard")
	flag.Float64Var(&o.budget, "budget", 500, "nameplate power bound per shard in watts")
	flag.Float64Var(&o.sigma, "sigma", 0.02, "manufacturing variability sigma")
	flag.StringVar(&o.policyName, "policy", "aggressive-backfill", "per-shard queueing policy: fcfs, backfill, aggressive-backfill")
	flag.StringVar(&o.routingName, "routing", "least-loaded", "job routing policy: least-loaded, power-headroom, locality")
	flag.IntVar(&o.jobs, "jobs", 256, "jobs in the synthetic arrival trace")
	flag.Float64Var(&o.meanGap, "gap", 4, "mean virtual seconds between arrivals")
	flag.Uint64Var(&o.seed, "seed", 1, "arrival-trace seed")
	flag.IntVar(&o.workers, "workers", 1, "federation workers (1 = serial Run; 0 = GOMAXPROCS); shard timelines replay in parallel only with -routing locality and no lending or faults; output is byte-identical for any value")
	flag.BoolVar(&o.lend, "lend", true, "enable the cross-shard power-lending broker")
	flag.Float64Var(&o.aggCap, "agg-cap", 0, "aggregate federation cap in watts (0 = sum of shard budgets)")
	flag.Float64Var(&o.leaseTTL, "lease-ttl", 240, "lease lifetime in virtual seconds")
	flag.Float64Var(&o.quantum, "quantum", 60, "watts moved per lease")
	flag.StringVar(&o.shardFaults, "shard-faults", "", "shard-fault scenario spec, e.g. crash-mtbf=400,mttr=120,part-mtbf=600 (empty = no shard faults)")
	flag.Float64Var(&o.hipriFrac, "hipri-frac", 0, "fraction of trace jobs submitted at high priority (enables preemption)")
	flag.IntVar(&o.hipri, "hipri", 10, "priority value for high-priority trace jobs")
	flag.StringVar(&o.teleOut, "telemetry-out", "", "write a telemetry report (JSON) here after the run")
	flag.Parse()
	o.notify = true

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "clipfed:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	if o.shards < 1 || o.shards > 1024 {
		return fmt.Errorf("-shards must be in 1..1024, got %d", o.shards)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	policy, err := parsePolicy(o.policyName)
	if err != nil {
		return err
	}
	routing, ok := fed.ParsePolicy(o.routingName)
	if !ok {
		return fmt.Errorf("unknown routing policy %q", o.routingName)
	}
	var sf *fed.ShardScenario
	if o.shardFaults != "" {
		if sf, err = fed.ParseShardScenario(o.shardFaults); err != nil {
			return err
		}
	}

	cfg := fed.Config{Routing: routing, Lending: fed.Lending{
		Enabled: o.lend, AggregateCapW: o.aggCap, TTL: o.leaseTTL, QuantumW: o.quantum,
	}, ShardFaults: sf}
	for i := 0; i < o.shards; i++ {
		cfg.Shards = append(cfg.Shards, fed.ShardConfig{
			Nodes: o.nodes, BudgetW: o.budget, Sigma: o.sigma, Seed: int64(1000 + i),
			Policy: policy, Reallocate: true, Preempt: o.hipriFrac > 0,
		})
	}
	f, err := fed.New(cfg)
	if err != nil {
		return err
	}

	// Seeded synthetic trace: a Poisson-ish arrival stream over the
	// standard workload suite, ids doubling as locality keys.
	mix := workload.Suite()
	r := rng.New(o.seed)
	// Priority picks come from their own stream, consulted only with
	// -hipri-frac set, so the arrival trace (times, apps, ids) stays
	// byte-identical to a run without the flag.
	pr := rng.New(o.seed + 0x9e3779b97f4a7c15)
	now := 0.0
	for i := 0; i < o.jobs; i++ {
		now += r.Range(0, 2*o.meanGap)
		id := fmt.Sprintf("job-%05d", i)
		pri := 0
		if o.hipriFrac > 0 && pr.Float64() < o.hipriFrac {
			pri = o.hipri
		}
		if err := f.ScheduleArrivalPri(now, id, mix[r.Intn(len(mix))], id, pri); err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM drain the federation gracefully, like clipd: stop
	// stepping at the next event boundary, settle every lease, run the
	// resident work out, then print the usual report and verdicts.
	if o.notify {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			s, sok := <-sig
			if !sok {
				return
			}
			fmt.Fprintf(os.Stderr, "clipfed: %v received, draining the federation\n", s)
			f.Interrupt()
		}()
	}

	start := time.Now()
	var runErr error
	if o.workers == 1 {
		runErr = f.Run()
	} else {
		runErr = f.RunParallel(o.workers)
	}
	wall := time.Since(start)

	report(w, f, o.shards, o.lend, o.hipriFrac > 0)
	// Wall-clock throughput is nondeterministic; keep it off stdout so
	// repeat runs stay byte-identical. The second line is the
	// machine-readable row scripts/bench.sh lifts into BENCH_results.json.
	fmt.Fprintf(os.Stderr, "clipfed: %d events, %d jobs in %.1f ms wall (%.0f events/s, %d workers)\n",
		f.Events(), o.jobs, wall.Seconds()*1e3, float64(f.Events())/wall.Seconds(), o.workers)
	fmt.Fprintf(os.Stderr, "clipfed shards=%d jobs=%d workers=%d events=%d leases=%d wall_ms=%.1f events_per_s=%.0f jobs_per_s=%.0f\n",
		o.shards, o.jobs, o.workers, f.Events(), len(f.Leases()), wall.Seconds()*1e3,
		float64(f.Events())/wall.Seconds(), float64(o.jobs)/wall.Seconds())
	if o.teleOut != "" {
		if werr := telemetry.Default.WriteReportFile(o.teleOut); werr != nil {
			fmt.Fprintln(os.Stderr, "clipfed: telemetry report:", werr)
		}
	}
	return runErr
}

// report renders the deterministic end-of-run summary.
func report(w io.Writer, f *fed.Federation, shards int, lend, hipri bool) {
	chaos := f.ShardFaultsArmed()
	fmt.Fprintf(w, "clipfed: %d shards, routing %s, lending %s\n",
		shards, routingString(f), onOff(lend))
	if f.Interrupted() {
		fmt.Fprintf(w, "interrupted: drained early with %d arrivals unrouted\n", f.ArrivalsPending())
	}

	cols := []string{"shard", "jobs", "completed", "failed", "bound_w", "drained_at_s"}
	if chaos {
		cols = append(cols, "health")
	}
	t := trace.NewTable(cols...)
	totalJobs, totalDone, totalFailed := 0, 0, 0
	for _, sh := range f.Shards() {
		done, failed := 0, 0
		for _, js := range sh.Online.Jobs() {
			switch js.State {
			case jobsched.JobCompleted:
				done++
			case jobsched.JobFailed:
				failed++
			}
		}
		n := len(sh.Online.Jobs())
		totalJobs += n
		totalDone += done
		totalFailed += failed
		row := []any{sh.ID, n, done, failed, sh.Online.Bound(), sh.Online.Now()}
		if chaos {
			row = append(row, f.ShardHealthOf(sh.ID).String())
		}
		t.Add(row...)
	}
	t.Render(w)

	expiries, recalls, releases, reclaims, forced, orphaned := 0, 0, 0, 0, 0, 0
	var lentW float64
	for _, l := range f.Leases() {
		lentW += l.Watts
		if l.OrphanedAt > 0 {
			orphaned++
		}
		switch l.State {
		case fed.LeaseExpired:
			expiries++
		case fed.LeaseRecalled:
			recalls++
		case fed.LeaseReleased:
			releases++
		case fed.LeaseReclaimed:
			reclaims++
			if l.Forced {
				forced++
			}
		}
	}
	fmt.Fprintf(w, "leases: %d granted (%.0f W moved): %d expired, %d recalled, %d released, %d active\n",
		len(f.Leases()), lentW, expiries, recalls, releases, len(f.ActiveLeases()))
	if chaos {
		downs, parts := f.ShardFaultStats()
		fmt.Fprintf(w, "shard faults: %d crashes, %d partitions, %d jobs evacuated\n",
			downs, parts, f.Evacuated())
		fmt.Fprintf(w, "orphan reclaim: %d leases orphaned, %d reclaimed (%d forced), %d outstanding\n",
			orphaned, reclaims, forced, len(f.OrphanedLeases()))
	}

	if hipri {
		pjobs, ptimes := 0, 0
		for _, sh := range f.Shards() {
			for _, js := range sh.Online.Jobs() {
				if js.Preemptions > 0 {
					pjobs++
					ptimes += js.Preemptions
				}
			}
		}
		fmt.Fprintf(w, "preemptions: %d jobs evicted %d times for higher-priority work\n",
			pjobs, ptimes)
	}

	audits, violations := f.AuditStats()
	verdict := "ok"
	if violations > 0 || f.Err() != nil {
		verdict = "VIOLATED"
	}
	fmt.Fprintf(w, "aggregate-cap invariant: %s (%d audits, %d violations)\n",
		verdict, audits, violations)
	for _, v := range f.Violations() {
		fmt.Fprintf(w, "  violation t=%.3fs [%s] %s\n", v.T, v.Kind, v.Msg)
	}
	lost := totalJobs - totalDone - totalFailed
	fmt.Fprintf(w, "jobs: %d routed, %d completed, %d failed, %d lost\n",
		totalJobs, totalDone, totalFailed, lost)
	if lost == 0 {
		fmt.Fprintln(w, "zero jobs lost")
	}
}

func routingString(f *fed.Federation) string { return f.Routing().String() }

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func parsePolicy(name string) (jobsched.Policy, error) {
	switch name {
	case "fcfs":
		return jobsched.FCFS, nil
	case "backfill":
		return jobsched.Backfill, nil
	case "aggressive-backfill":
		return jobsched.AggressiveBackfill, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", name)
	}
}
