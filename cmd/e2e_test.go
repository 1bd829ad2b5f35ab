// End-to-end tests for the command-line tools: each binary is built
// once and exercised with realistic arguments; output markers assert
// the full stack works through the CLI surface.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/workload"
)

// binDir holds the built binaries for the test process.
var binDir string

// update re-records the stdout goldens under testdata and the root
// experiments_output.txt before comparing against them.
var update = flag.Bool("update", false, "re-record cmd/testdata/*.golden and experiments_output.txt")

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "clip-bin")
	if err != nil {
		panic(err)
	}
	// Build all seven tools in one invocation.
	cmd := exec.Command("go", "build", "-o", dir,
		"repro/cmd/clipsim", "repro/cmd/clipprof", "repro/cmd/clipbench",
		"repro/cmd/clipjobs", "repro/cmd/clipd", "repro/cmd/clipload",
		"repro/cmd/clipfed")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		panic("build failed: " + string(out))
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes a built binary and returns its combined output. The
// working directory is the temporary binary directory, so default
// output files (e.g. clipbench's TELEMETRY_report.json) never land in
// the repository.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Dir = binDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func mustContain(t *testing.T, out string, markers ...string) {
	t.Helper()
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Errorf("output missing %q:\n%s", m, out)
		}
	}
}

func TestClipsimAllMethods(t *testing.T) {
	out := run(t, "clipsim", "-app", "tealeaf", "-budget", "1000", "-method", "all")
	mustContain(t, out, "All-In", "Lower-Limit", "Coordinated", "CLIP", "runtime_s", "tealeaf")
}

func TestClipsimWeak(t *testing.T) {
	out := run(t, "clipsim", "-app", "comd", "-budget", "1500", "-weak")
	mustContain(t, out, "comd.weak")
}

func TestClipsimCustomSpec(t *testing.T) {
	spec := `[{"Name":"custom","Iterations":60,
	  "Phases":[{"Name":"main","ParallelCycles":30,"MemoryBytes":20,"SyncCoeff":0.02,"Overlap":0.6}],
	  "CommBytes":0.2,"SurfaceExp":0.5,"CommLatFactor":1,"ICacheMPKI":1,"IPC":1.5}]`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "clipsim", "-spec", path, "-app", "custom", "-budget", "900")
	mustContain(t, out, "custom", "CLIP")
}

// TestClipsimFaults pins the -faults chaos mode at the CLI surface:
// the fault timeline, retry accounting and bound audit all appear, and
// a second identical invocation reproduces the output byte-for-byte.
func TestClipsimFaults(t *testing.T) {
	args := []string{"-app", "sp-mz.C", "-budget", "1200",
		"-faults", "crash-mtbf=300,mttr=20,exc-mtbf=240,seed=7", "-fault-jobs", "4"}
	out := run(t, "clipsim", args...)
	mustContain(t, out, "fault scenario:", "crash-mtbf=300", "makespan:",
		"faults injected:", "retries:", "bound-invariant: ok")
	if again := run(t, "clipsim", args...); again != out {
		t.Errorf("same -faults seed produced different output (%d vs %d bytes)", len(out), len(again))
	}
}

func TestClipsimRejectsUnknownApp(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "clipsim"), "-app", "nope")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown app accepted:\n%s", out)
	}
}

// TestBadSigmaRejected: clipsim, clipd and clipfed exit with an error
// on a negative or non-finite -sigma instead of running.
func TestBadSigmaRejected(t *testing.T) {
	for _, sigma := range []string{"NaN", "Inf", "-Inf", "-0.1"} {
		for _, args := range [][]string{
			{"clipsim", "-nodes", "1"},
			{"clipd", "-listen", "127.0.0.1:0"},
			{"clipfed", "-shards", "1", "-jobs", "1"},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			cmd := exec.CommandContext(ctx, filepath.Join(binDir, args[0]), append(args[1:], "-sigma", sigma)...)
			cmd.Dir = binDir
			out, err := cmd.CombinedOutput()
			timedOut := ctx.Err() != nil
			cancel()
			if err == nil || timedOut || !strings.Contains(string(out), "sigma") {
				t.Errorf("%s -sigma %s: err %v, output:\n%s", args[0], sigma, err, out)
			}
		}
	}
}

// TestBadBudgetRejected: clipsim, clipd, clipjobs and clipfed exit with
// an error on a non-positive or non-finite power bound instead of
// running.
func TestBadBudgetRejected(t *testing.T) {
	for _, budget := range []string{"NaN", "Inf", "-Inf", "0", "-5"} {
		for _, args := range [][]string{
			{"clipsim", "-nodes", "1", "-budget"},
			{"clipd", "-listen", "127.0.0.1:0", "-budget"},
			{"clipjobs", "-demo", "-bound"},
			{"clipfed", "-shards", "1", "-jobs", "1", "-budget"},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			cmd := exec.CommandContext(ctx, filepath.Join(binDir, args[0]), append(args[1:], budget)...)
			cmd.Dir = binDir
			out, err := cmd.CombinedOutput()
			timedOut := ctx.Err() != nil
			cancel()
			if err == nil || timedOut || !strings.Contains(string(out), "budget") && !strings.Contains(string(out), "bound") {
				t.Errorf("%s %s %s: err %v, output:\n%s", args[0], args[len(args)-1], budget, err, out)
			}
		}
	}
}

func TestClipprofSuiteAndDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.json")
	out := run(t, "clipprof", "-suite", "-db", path)
	mustContain(t, out, "bt-mz.C", "logarithmic", "parabolic", "linear",
		"knowledge database (10 entries)")
	db, err := profile.LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db) != len(workload.Suite()) {
		t.Errorf("knowledge database holds %d entries, want %d", len(db), len(workload.Suite()))
	}
	for _, app := range workload.Suite() {
		if db[app.Name] == nil {
			t.Errorf("knowledge database has no entry %s", app.Name)
		}
	}
}

func TestClipprofSingleApp(t *testing.T) {
	out := run(t, "clipprof", "-app", "stream")
	mustContain(t, out, "stream", "scatter", "logarithmic")
}

func TestClipbenchListAndOneExperiment(t *testing.T) {
	out := run(t, "clipbench", "-list")
	mustContain(t, out, "fig1", "fig9", "tab2", "multijob", "des-validate")

	out = run(t, "clipbench", "-exp", "tab2")
	mustContain(t, out, "bt-mz.C", "scalability_type")
}

func TestClipbenchSVG(t *testing.T) {
	dir := t.TempDir()
	run(t, "clipbench", "-exp", "fig6", "-svg", dir)
	data, err := os.ReadFile(filepath.Join(dir, "fig6-classification.svg"))
	if err != nil {
		t.Fatalf("SVG not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("not an SVG file")
	}
}

// TestClipbenchTelemetryReport pins the observability contract: any
// experiment run emits a non-empty machine-readable telemetry report
// with schedule-decision counts, cache hit/miss counters, per-node
// budget gauges, and the decision-event log.
func TestClipbenchTelemetryReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tele.json")
	run(t, "clipbench", "-exp", "overhead", "-telemetry-out", path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("telemetry report not written: %v", err)
	}
	var report struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Events   []struct {
			Kind string `json:"kind"`
			App  string `json:"app"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("telemetry report is not valid JSON: %v", err)
	}
	if report.Counters["clip_schedules_total"] == 0 {
		t.Error("no schedule decisions counted")
	}
	hits := report.Counters["clip_decision_cache_hits_total"]
	misses := report.Counters["clip_decision_cache_misses_total"]
	if hits+misses == 0 {
		t.Error("no decision cache activity counted")
	}
	var nodeBudgets int
	for name := range report.Gauges {
		if strings.HasPrefix(name, "clip_node_budget_cpu_watts{") {
			nodeBudgets++
		}
	}
	if nodeBudgets == 0 {
		t.Errorf("no per-node budget gauges in report; gauges: %v", report.Gauges)
	}
	var schedules int
	for _, e := range report.Events {
		if e.Kind == "schedule" && e.App != "" {
			schedules++
		}
	}
	if schedules == 0 {
		t.Error("decision-event log has no schedule events")
	}
}

// TestClipsimTelemetryReport checks the clipsim surface writes the
// same report format on demand.
func TestClipsimTelemetryReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tele.json")
	run(t, "clipsim", "-app", "comd", "-budget", "1200", "-telemetry-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("telemetry report not written: %v", err)
	}
	for _, marker := range []string{"clip_schedules_total", "clip_power_solvefreq_total", `"kind": "schedule"`} {
		if !strings.Contains(string(data), marker) {
			t.Errorf("report missing %q", marker)
		}
	}
}

func TestClipbenchUnknownExperiment(t *testing.T) {
	cmd := exec.Command(filepath.Join(binDir, "clipbench"), "-exp", "nope")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
}

func TestClipjobsDemo(t *testing.T) {
	out := run(t, "clipjobs", "-demo", "-bound", "1300", "-policy", "aggressive", "-realloc")
	mustContain(t, out, "per-job schedule", "makespan_s", "lu")
}

func TestClipjobsStreamFile(t *testing.T) {
	stream := `[{"id":"j1","app":"comd","arrival":0,"nodes":4},
	            {"id":"j2","app":"amg","arrival":2}]`
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "clipjobs", "-stream", path, "-bound", "1400", "-policy", "fcfs")
	mustContain(t, out, "j1", "j2", "fcfs")
}

// TestExamplesRun builds every main under examples/ and requires each
// to run to completion: the examples drive the library surface end to
// end, and go build alone only compiles them.
func TestExamplesRun(t *testing.T) {
	entries, err := os.ReadDir("../examples")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./examples/...")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, e.Name()))
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s failed: %v\n%s", e.Name(), err, out)
			}
		})
	}
}

// checkGolden compares got against the golden file. Under -update a
// recording call (record) rewrites the file first; the other calls of
// the same golden still compare against it.
func checkGolden(t *testing.T, golden string, got []byte, record bool) {
	t.Helper()
	if *update && record {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestClipbenchGolden pins the full paper report: clipbench -exp all,
// serial and on a 4-worker pool, must reproduce the committed
// experiments_output.txt byte for byte. Run with -update to re-record
// it from the serial run. Each run's telemetry report must also show
// the decision mix EXPERIMENTS.md states: every scalability class takes
// at least a quarter of the schedule decisions.
func TestClipbenchGolden(t *testing.T) {
	golden := filepath.Join("..", "experiments_output.txt")
	for _, par := range []string{"1", "4"} {
		t.Run("parallel="+par, func(t *testing.T) {
			tele := filepath.Join(t.TempDir(), "tele.json")
			out := run(t, "clipbench", "-exp", "all", "-parallel", par, "-telemetry-out", tele)
			checkGolden(t, golden, []byte(out), par == "1")
			counters := reportCounters(t, tele)
			classes := []string{"linear", "logarithmic", "parabolic"}
			var total uint64
			for _, c := range classes {
				total += counters[`clip_decisions_by_class_total{class="`+c+`"}`]
			}
			for _, c := range classes {
				if n := counters[`clip_decisions_by_class_total{class="`+c+`"}`]; total == 0 || 4*n < total {
					t.Errorf("%s decisions: %d of %d, want at least a quarter", c, n, total)
				}
			}
		})
	}
}

// reportCounters reads the counters of a -telemetry-out report.
func reportCounters(t *testing.T, path string) map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("telemetry report not written: %v", err)
	}
	var report struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("telemetry report is not valid JSON: %v", err)
	}
	return report.Counters
}

// TestClipsimGolden pins clipsim's stdout for the single-run planner
// and for the -faults chaos mode, each without and with a
// high-priority share (which turns on preemption in the chaos mode).
// Run with -update to re-record.
func TestClipsimGolden(t *testing.T) {
	const scenario = "crash-mtbf=120,mttr=20,exc-mtbf=240,seed=7"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"hipri0", []string{"-hipri-frac", "0"}},
		{"hipri0_faults", []string{"-hipri-frac", "0", "-faults", scenario}},
		{"hipri30", []string{"-hipri-frac", "0.3"}},
		{"hipri30_faults", []string{"-hipri-frac", "0.3", "-faults", scenario}},
		// The one shape where killed jobs retry and finish and evicted
		// jobs re-run.
		{"hipri40_faults", []string{"-hipri-frac", "0.4", "-faults", "crash-mtbf=600,mttr=30,exc-mtbf=300,seed=7"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(binDir, "clipsim"), tc.args...)
			cmd.Dir = binDir
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("clipsim %v failed: %v\n%s%s", tc.args, err, stdout.Bytes(), stderr.Bytes())
			}
			checkGolden(t, filepath.Join("testdata", "clipsim_"+tc.name+".golden"), stdout.Bytes(), true)
		})
	}
}

// TestClipfedGolden pins clipfed's stdout for four small federations
// against committed goldens: lending on, lending off with a tight
// arrival gap, locality routing with lending off (the partitioned
// replay of RunParallel) and a shard-fault run with preemptive
// priority. Every shape must match the same file at -workers 1, 2 and
// 4. Run with -update to re-record.
func TestClipfedGolden(t *testing.T) {
	base := []string{"-shards", "8", "-nodes", "4", "-budget", "400", "-jobs", "96", "-seed", "3"}
	shapes := []struct {
		name string
		args []string
	}{
		{"lending", []string{"-gap", "2"}},
		{"nolend", []string{"-lend=false", "-gap", "0.25"}},
		{"locality", []string{"-routing", "locality", "-lend=false", "-gap", "0.25"}},
		{"chaos", []string{"-gap", "2", "-shard-faults", "crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9",
			"-hipri-frac", "0.2"}},
	}
	for _, sh := range shapes {
		golden := filepath.Join("testdata", "clipfed_"+sh.name+".golden")
		for _, workers := range []string{"1", "2", "4"} {
			t.Run(sh.name+"/workers="+workers, func(t *testing.T) {
				args := append(append(append([]string(nil), base...), sh.args...), "-workers", workers)
				cmd := exec.Command(filepath.Join(binDir, "clipfed"), args...)
				cmd.Dir = binDir
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("clipfed %v failed: %v\n%s%s", args, err, stdout.Bytes(), stderr.Bytes())
				}
				checkGolden(t, golden, stdout.Bytes(), workers == "1")
			})
		}
	}
}
