// Command clipsim schedules and executes one application on the
// simulated power-bounded cluster with a chosen method.
//
// Usage:
//
//	clipsim -app sp-mz.C -budget 1200
//	clipsim -app lu-mz.C -budget 800 -method coordinated
//	clipsim -app comd -budget 1800 -method all   # compare every method
//	clipsim -spec custom.json -app myapp          # user-defined workload
//	clipsim -app lu-mz.C -weak                    # weak-scaled variant
//	clipsim -app comd -telemetry :9090            # live /metrics endpoint
//	clipsim -app sp-mz.C -budget 1200 -faults "crash-mtbf=60,mttr=20,seed=7"
//
// With -faults, clipsim switches from the single-run planner to the
// multi-job scheduler and replays a small job stream twice — once
// fault-free, once under the given deterministic fault scenario — and
// reports the fault log, per-job retries, degradation and the power
// bound audit. See `internal/faults` for the scenario key=value keys.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	appName := flag.String("app", "sp-mz.C", "application name (see clipbench -exp tab2)")
	budget := flag.Float64("budget", 1200, "cluster power budget in watts (CPU+DRAM domains)")
	method := flag.String("method", "clip", "scheduler: clip, all-in, lower-limit, coordinated, optimal, or 'all'")
	nodes := flag.Int("nodes", 8, "cluster size")
	sigma := flag.Float64("sigma", 0.02, "manufacturing variability sigma")
	specPath := flag.String("spec", "", "JSON workload file; -app then selects by name within it")
	weak := flag.Bool("weak", false, "run the weak-scaled variant of the application")
	teleAddr := flag.String("telemetry", "", "serve live telemetry over HTTP on this address (e.g. :9090; /metrics, /telemetry.json)")
	teleOut := flag.String("telemetry-out", "", "write an end-of-run telemetry report (JSON) to this file")
	faultSpec := flag.String("faults", "", "fault-injection scenario as key=value pairs, e.g. \"crash-mtbf=60,mttr=20,seed=7\" (switches to the multi-job chaos mode)")
	faultJobs := flag.Int("fault-jobs", 6, "number of staggered copies of -app submitted in -faults mode")
	hipriFrac := flag.Float64("hipri-frac", 0, "fraction of -fault-jobs submitted at high priority (enables preemption)")
	hipri := flag.Int("hipri", 10, "priority value for high-priority jobs")
	flag.Parse()

	if *teleAddr != "" {
		srv, addr, err := telemetry.Serve(*teleAddr, telemetry.Default)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "clipsim: telemetry live on http://%s/metrics\n", addr)
	}
	if *teleOut != "" {
		defer func() {
			if err := telemetry.Default.WriteReportFile(*teleOut); err != nil {
				fmt.Fprintln(os.Stderr, "clipsim: telemetry report:", err)
			}
		}()
	}

	app, err := resolveApp(*specPath, *appName)
	if err != nil {
		fatal(err)
	}
	if *weak {
		app = app.WeakScaled()
	}
	if err := hw.CheckSigma(*sigma); err != nil {
		fatal(err)
	}
	cl := hw.NewCluster(*nodes, hw.HaswellSpec(), *sigma, 42)

	if *faultSpec != "" {
		if err := runFaults(cl, app, *budget, *faultSpec, *faultJobs, *hipriFrac, *hipri); err != nil {
			fatal(err)
		}
		return
	}

	methods, err := selectMethods(cl, *method)
	if err != nil {
		fatal(err)
	}

	t := trace.NewTable("method", "nodes", "cores", "affinity", "per-node budget",
		"runtime_s", "avg_power_W", "energy_kJ")
	for _, m := range methods {
		p, err := m.Plan(cl, app, *budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clipsim: %s: %v\n", m.Name(), err)
			continue
		}
		if err := p.Validate(cl, *budget); err != nil {
			fatal(fmt.Errorf("%s produced an invalid plan: %w", m.Name(), err))
		}
		res, err := plan.Execute(cl, app, p)
		if err != nil {
			fatal(err)
		}
		t.Add(m.Name(), p.Nodes(), p.Cores, p.Affinity.String(),
			p.PerNode[0].String(), res.Time, res.AvgPower, res.Energy/1000)
	}
	fmt.Printf("application %s under a %.0f W cluster power bound (%d nodes available)\n\n",
		app.Name, *budget, *nodes)
	t.Render(os.Stdout)
}

// runFaults is the -faults mode: submit njobs staggered copies of app
// to the multi-job scheduler under the parsed fault scenario, and
// report the fault timeline, per-job outcomes and the degradation
// against a fault-free control of the same stream. The run fails (exit
// status 1) if the power bound was exceeded at any event.
func runFaults(cl *hw.Cluster, app *workload.Spec, budget float64, spec string, njobs int,
	hipriFrac float64, hipri int) error {
	sc, err := faults.Parse(spec)
	if err != nil {
		return err
	}
	if njobs < 1 {
		return fmt.Errorf("clipsim: -fault-jobs must be at least 1, got %d", njobs)
	}
	jobs := make([]jobsched.Job, njobs)
	// Priority picks come from a seeded stream of their own, consulted
	// only with -hipri-frac set, so the default stream and its output
	// stay byte-identical to runs without the flag.
	pr := rng.New(9)
	nhigh := 0
	for i := range jobs {
		pri := 0
		if hipriFrac > 0 && pr.Float64() < hipriFrac {
			pri = hipri
			nhigh++
		}
		jobs[i] = jobsched.Job{ID: fmt.Sprintf("j%02d", i), App: app, Arrival: float64(i) * 5, Priority: pri}
	}
	// Both runs use the same cluster, so they share one trained NP
	// regression; each still gets a fresh CLIP and knowledge table.
	model, err := core.TrainNPModel(cl.Spec())
	if err != nil {
		return err
	}
	run := func(sc *faults.Scenario) (*jobsched.Stats, error) {
		clip, err := core.New(cl, core.Options{Knowledge: core.NewKnowledge(cl.Spec(), model)})
		if err != nil {
			return nil, err
		}
		s, err := jobsched.New(cl, clip, jobsched.Config{Bound: budget,
			Policy: jobsched.AggressiveBackfill, Reallocate: true, Faults: sc,
			Preempt: hipriFrac > 0})
		if err != nil {
			return nil, err
		}
		return s.Run(jobs)
	}
	base, err := run(nil)
	if err != nil {
		return fmt.Errorf("fault-free control: %w", err)
	}
	st, err := run(sc)
	if err != nil {
		return err
	}

	fmt.Printf("%d× %s under a %.0f W cluster power bound (%d nodes)\n", njobs, app.Name, budget, len(cl.Nodes))
	fmt.Printf("fault scenario: %s\n\n", sc)
	for _, e := range st.FaultLog {
		fmt.Println(e.String())
	}

	fmt.Println()
	t := trace.NewTable("job", "arrival_s", "start_s", "finish_s", "retries", "nodes")
	for _, j := range st.Jobs {
		t.Add(j.ID, j.Arrival, j.Start, j.Finish, j.Retries, j.Nodes)
	}
	t.Render(os.Stdout)
	if len(st.Failed) > 0 {
		fmt.Println()
		f := trace.NewTable("failed job", "arrival_s", "failed_at_s", "retries", "reason")
		for _, j := range st.Failed {
			f.Add(j.ID, j.Arrival, j.FailedAt, j.Retries, j.Reason)
		}
		f.Render(os.Stdout)
	}

	deg := 0.0
	if base.Makespan > 0 {
		deg = 100 * (st.Makespan/base.Makespan - 1)
	}
	fmt.Println()
	fmt.Printf("makespan: %.2f s (fault-free %.2f s, %+.1f%%)\n", st.Makespan, base.Makespan, deg)
	fmt.Printf("faults injected: %d (%d crashes, %d excursions, %d stragglers)\n",
		st.Faults.Injected, st.Faults.Crashes, st.Faults.Excursions, st.Faults.Stragglers)
	fmt.Printf("retries: %d  migrations: %d  failed jobs: %d  power reclaimed: %.1f W\n",
		st.Faults.Retries, st.Faults.Migrations, len(st.Failed), st.Faults.WattsReclaimed)
	if hipriFrac > 0 {
		fmt.Printf("priority mix: %d high (priority %d), %d normal\n", nhigh, hipri, njobs-nhigh)
		fmt.Printf("preempted: %d evictions of lower-priority jobs, every victim re-enqueued\n",
			st.Preemptions)
		lost := njobs - len(st.Jobs) - len(st.Failed)
		fmt.Printf("job accounting: %d submitted = %d finished + %d failed (%d lost)\n",
			njobs, len(st.Jobs), len(st.Failed), lost)
		if lost != 0 {
			return fmt.Errorf("clipsim: %d jobs lost", lost)
		}
	}
	if st.PeakAllocW > budget+1e-6 {
		fmt.Printf("bound-invariant: VIOLATED (peak allocation %.1f/%.0f W)\n", st.PeakAllocW, budget)
		return fmt.Errorf("peak allocation %.3f W exceeded the %.0f W bound", st.PeakAllocW, budget)
	}
	fmt.Printf("bound-invariant: ok (peak allocation %.1f/%.0f W)\n", st.PeakAllocW, budget)
	return nil
}

// resolveApp finds the application in the built-in catalogue or, when
// specPath is given, in the user-provided JSON workload file.
func resolveApp(specPath, name string) (*workload.Spec, error) {
	if specPath == "" {
		return workload.SuiteByName(name)
	}
	specs, err := workload.LoadSpecs(specPath)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("clipsim: %q not found in %s", name, specPath)
}

func selectMethods(cl *hw.Cluster, name string) ([]plan.Method, error) {
	newCLIP := func() (plan.Method, error) { return core.New(cl) }
	switch name {
	case "clip":
		m, err := newCLIP()
		return []plan.Method{m}, err
	case "all-in":
		return []plan.Method{&baseline.AllIn{}}, nil
	case "lower-limit":
		return []plan.Method{&baseline.LowerLimit{}}, nil
	case "coordinated":
		return []plan.Method{&baseline.Coordinated{}}, nil
	case "optimal":
		return []plan.Method{&baseline.Optimal{}}, nil
	case "all":
		clip, err := newCLIP()
		if err != nil {
			return nil, err
		}
		return []plan.Method{
			&baseline.AllIn{}, &baseline.LowerLimit{}, &baseline.Coordinated{}, clip,
		}, nil
	default:
		return nil, fmt.Errorf("clipsim: unknown method %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clipsim:", err)
	os.Exit(1)
}
