// Command clipperf is the repository's benchmark. It runs one workload
// per process against the layers' public functions and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage:
//
//	clipperf --workload serve-submit --seed 1 --seconds 15 --trace 0
//	clipperf --workload fed-chaos --seed 3 --seconds 15 --trace 1
//	clipperf compare base1.out base2.out ... -- head1.out head2.out ...
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer, writes them to
// --trace-dir and reports the per-layer metrics. A failed correctness
// check prints the result with "correct": false and exits 1. See
// README.md for the workloads, metrics and trace format.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// server and the load generator
	{"server.submit.handler_p50_ms", "ms", "lower"},
	{"server.batch.handler_p50_ms", "ms", "lower"},
	{"server.cancel.handler_p50_ms", "ms", "lower"},
	{"server.status.handler_p50_ms", "ms", "lower"},
	{"server.cluster.handler_p50_ms", "ms", "lower"},
	{"server.list.handler_p50_ms", "ms", "lower"},
	{"server.self_p50_ms", "ms", "lower"},
	{"net.p50_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.write_p50_ms", "ms", "lower"},
	{"serve.read_p50_ms", "ms", "lower"},
	// jobsched
	{"jobsched.submit_us", "us", "lower"},
	{"jobsched.submit_batch_us", "us", "lower"},
	{"jobsched.cancel_us", "us", "lower"},
	{"jobsched.status_us", "us", "lower"},
	{"jobsched.jobs_us", "us", "lower"},
	{"jobsched.cluster_us", "us", "lower"},
	{"jobsched.advance_us", "us", "lower"},
	{"jobsched.event_us", "us", "lower"},
	{"jobsched.event_s", "s", "lower"},
	{"jobsched.events", "count", "lower"},
	{"jobsched.started", "count", "higher"},
	{"jobsched.preempted", "count", "lower"},
	{"jobsched.reconcile_passes", "count", "lower"},
	{"jobsched.queue_depth_peak", "count", "lower"},
	// core, coordinator, recommend, profile, sim
	{"core.schedule_cold_us", "us", "lower"},
	{"core.schedule_warm_us", "us", "lower"},
	{"core.profiling_passes", "count", "lower"},
	{"coordinator.schedules", "count", "lower"},
	{"coordinator.rebalances", "count", "lower"},
	{"recommend.calls", "count", "lower"},
	{"sim.evals", "count", "lower"},
	{"sim.runs", "count", "lower"},
	{"sim.evaltime_ns", "ns", "lower"},
	// fed
	{"fed.trial_s", "s", "lower"},
	{"fed.serial_jobs_per_s", "1/s", "higher"},
	{"fed.parallel_speedup", "ratio", "higher"},
	{"fed.step_p50_us", "us", "lower"},
	{"fed.step_p99_us", "us", "lower"},
	{"fed.drain_s", "s", "lower"},
	{"fed.barrier_s", "s", "lower"},
	{"fed.windows", "count", "lower"},
	{"fed.events_per_window", "count", "higher"},
	{"fed.self_s", "s", "lower"},
	{"fed.audits", "count", "lower"},
	{"fed.leases", "count", "lower"},
	{"fed.orphaned", "count", "lower"},
	{"fed.evacuated", "count", "lower"},
	{"fed.digest_mismatch", "count", "lower"},
	{"fed.turnaround_vs", "s", "lower"},
	// des
	{"des.events", "count", "lower"},
	{"des.compactions", "count", "lower"},
	{"des.queue_depth_peak", "count", "lower"},
	// the trace itself
	{"trace.overhead_frac", "ratio", "lower"},
}

// config is one run's settings. Flags fill it; the smoke test builds
// reduced ones directly.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured time; the trace run splits it in halves
	trace    bool
	traceDir string
	setups   int     // set-ups timed for setup_s (median reported)
	scale    float64 // job counts relative to the full workload
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, why string
	run       func(cfg config, o *outcome) error
}

var workloads = []workloadDef{
	{"serve-submit", "single-job submits at 2,000 req/s, then back to back, on a cluster that never queues: the HTTP request path does the work, jobsched and core almost none", runServeSubmit},
	{"serve-churn", "16-job batches (20% high priority), cancels and reads against a 2,000-deep queue: jobsched's priority scan and the one scheduler lock dominate", runServeChurn},
	{"fed-scale", "65,536 jobs over 64 locality-routed shards with lending off: deep shard queues on the partitioned path of RunParallel", runFedScale},
	{"fed-chaos", "8,192 jobs over 64 shards with lending, shard crashes and partitions, and 20% preemptive priority, stepped serially", runFedChaos},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// outcome collects one run's metrics and check results.
type outcome struct {
	cfg       config
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	log       io.Writer
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// na reports layers the workload does not exercise.
func (o *outcome) na(names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.problems) < 20 {
		fmt.Fprintln(o.log, "CHECK FAILED:", msg)
	}
	o.problems = append(o.problems, msg)
}

// logf writes a line of the human report to the log.
func (o *outcome) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes the configured workload and returns its outcome.
func run(cfg config, log io.Writer) (*outcome, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	o := &outcome{cfg: cfg, metrics: map[string]float64{}, log: log}
	if err := w.run(cfg, o); err != nil {
		return nil, err
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		o.set("peak_rss_mb", rss)
	}
	return o, nil
}

// result renders the outcome for the mode's metric set; a metric the
// workload did not report is a failed check.
func (o *outcome) result() resultLine {
	defs := endToEnd
	if o.cfg.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			o.fail("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Correct = len(o.problems) == 0 && o.attempted > 0
	return out
}

// report prints the metric table, one "#" line per metric, and then
// the JSON result line to w.
func (o *outcome) report(w io.Writer) (resultLine, error) {
	res := o.result()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# clipperf workload=%s seed=%d seconds=%g trace=%v\n",
		o.cfg.workload, o.cfg.seed, o.cfg.seconds, o.cfg.trace)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintln(w, string(b))
	return res, err
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("clipperf", flag.ContinueOnError)
	cfg := config{setups: 9, scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		return cfg, fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 2 || cfg.seconds > 120 {
		return cfg, errors.New("--seconds must be in [2, 120]")
	}
	if trace != 0 && trace != 1 {
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("clipperf-%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "clipperf:", err)
		os.Exit(2)
	}
	start := time.Now()
	o, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clipperf:", err)
		os.Exit(1)
	}
	res, err := o.report(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clipperf:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "clipperf: %s done in %.1f s\n", cfg.workload, time.Since(start).Seconds())
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "clipperf: %d checks failed\n", len(o.problems))
		os.Exit(1)
	}
}
