// Command clipd is the CLIP scheduling daemon: a long-running HTTP
// service that places jobs on the simulated power-bounded cluster as
// they arrive, using the same deterministic scheduler core as the batch
// tools, bridged onto the wall clock.
//
// Usage:
//
//	clipd -listen :8080 -budget 1200
//	clipd -listen 127.0.0.1:0 -budget 800 -policy backfill -timescale 60
//	clipd -budget 1200 -faults "crash-mtbf=120,mttr=20,seed=7"   # live chaos
//
// API:
//
//	POST   /v1/jobs        {"id":"my-job","app":"comd"} → 201 + placement
//	POST   /v1/jobs:batch  {"jobs":[{"app":"comd"},...]} → per-entry results
//	GET    /v1/jobs        all jobs
//	GET    /v1/jobs/{id}   one job's lifecycle
//	DELETE /v1/jobs/{id}   cancel; reclaimed watts go back to the pool
//	GET    /v1/cluster     bound/free/allocated/reserved watts, node health
//	GET    /healthz        ok | draining
//	GET    /metrics        Prometheus text exposition
//	GET    /telemetry.json JSON telemetry snapshot
//
// Submissions past the admission queue depth are rejected with 429 +
// Retry-After; during drain with 503. With -pprof the Go profiler is
// served under /debug/pprof/ on the same listener. On SIGINT/SIGTERM the daemon
// stops admitting, finishes resident jobs in virtual time (unstartable
// queued work is failed with an explicit reason), prints a final job
// report, optionally writes the telemetry report, and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address (host:0 for an ephemeral port)")
	budget := flag.Float64("budget", 1200, "cluster power bound in watts (CPU+DRAM domains)")
	nodes := flag.Int("nodes", 8, "cluster size")
	sigma := flag.Float64("sigma", 0.02, "manufacturing variability sigma")
	policy := flag.String("policy", "aggressive-backfill", "queueing policy: fcfs, backfill, aggressive-backfill")
	realloc := flag.Bool("reallocate", true, "redistribute freed power to running jobs (POWsched-style)")
	timescale := flag.Float64("timescale", 1, "virtual seconds per wall second (>=1 fast-forwards the cluster)")
	queueDepth := flag.Int("queue-depth", 64, "admission queue depth; excess submissions get 429")
	reqTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
	faultSpec := flag.String("faults", "", "live fault injection as key=value pairs, e.g. \"crash-mtbf=120,mttr=20,seed=7\"")
	teleOut := flag.String("telemetry-out", "", "write a telemetry report (JSON) here after drain")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	preempt := flag.Bool("preempt", true, "let higher-priority jobs evict lower-priority running jobs")
	flag.Parse()

	if err := run(*listen, *budget, *nodes, *sigma, *policy, *realloc,
		*timescale, *queueDepth, *reqTimeout, *faultSpec, *teleOut, *pprof, *preempt); err != nil {
		fmt.Fprintln(os.Stderr, "clipd:", err)
		os.Exit(1)
	}
}

func run(listen string, budget float64, nodes int, sigma float64, policyName string,
	realloc bool, timescale float64, queueDepth int, reqTimeout time.Duration,
	faultSpec, teleOut string, pprof, preempt bool) error {
	policy, err := jobsched.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	var sc *faults.Scenario
	if faultSpec != "" {
		if sc, err = faults.Parse(faultSpec); err != nil {
			return err
		}
	}
	if err := hw.CheckSigma(sigma); err != nil {
		return err
	}
	cl := hw.NewCluster(nodes, hw.HaswellSpec(), sigma, 42)
	clip, err := core.New(cl)
	if err != nil {
		return err
	}
	sched, err := jobsched.New(cl, clip, jobsched.Config{
		Bound: budget, Policy: policy, Reallocate: realloc, Faults: sc,
		Preempt: preempt,
	})
	if err != nil {
		return err
	}
	srv, err := server.New(sched, server.Options{
		Timescale:      timescale,
		QueueDepth:     queueDepth,
		RequestTimeout: reqTimeout,
		Pprof:          pprof,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start(listen)
	if err != nil {
		return err
	}
	fmt.Printf("clipd: serving on http://%s (bound %.0f W, %d nodes, policy %s, timescale ×%g)\n",
		addr, budget, nodes, policy, timescale)
	if sc != nil {
		fmt.Printf("clipd: live fault injection: %s\n", sc)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("clipd: %s received, draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := srv.Drain(ctx)
	report(final)
	if teleOut != "" {
		if werr := telemetry.Default.WriteReportFile(teleOut); werr != nil {
			fmt.Fprintln(os.Stderr, "clipd: telemetry report:", werr)
		}
	}
	if cerr := srv.Close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Println("clipd: drained, zero jobs lost")
	return nil
}

// report prints the end-of-life job table and outcome counts.
func report(jobs []jobsched.JobStatus) {
	if len(jobs) == 0 {
		fmt.Println("clipd: no jobs were submitted")
		return
	}
	counts := map[jobsched.JobState]int{}
	t := trace.NewTable("job", "state", "arrival_s", "start_s", "finish_s", "retries", "reason")
	for _, j := range jobs {
		counts[j.State]++
		t.Add(j.ID, j.State.String(), j.Arrival, j.Start, j.Finish, j.Retries, j.Reason)
	}
	t.Render(os.Stdout)
	fmt.Printf("clipd: %d jobs: %d completed, %d cancelled, %d failed\n", len(jobs),
		counts[jobsched.JobCompleted], counts[jobsched.JobCancelled], counts[jobsched.JobFailed])
}
