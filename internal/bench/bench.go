// Package bench regenerates every table and figure of the paper's
// evaluation (§V) plus the ablations DESIGN.md calls out. Each
// experiment is deterministic and renders its result as text tables /
// ASCII charts; cmd/clipbench drives them and bench_test.go wraps them
// in testing.B benchmarks.
package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Telemetry handles: experiment throughput and wall time. Per-
// experiment times additionally land in labelled gauges
// (clip_bench_experiment_seconds{exp="fig8"}), so an end-of-run report
// attributes the suite's cost to individual artifacts.
var (
	mExperiments = telemetry.Default.Counter("clip_bench_experiments_total",
		"experiments executed")
	mExperimentSeconds = telemetry.Default.Histogram("clip_bench_experiment_seconds",
		"wall time per experiment", nil)
)

// Context carries shared state across experiments: the testbed model,
// the NP regression trained once per run on its node spec (like the
// paper's offline training) and a lazily constructed CLIP instance
// holding that regression.
//
// A Context is safe for concurrent use: the suite runner executes
// experiments from a worker pool and the heavyweight experiments fan
// their inner (application × bound) sweeps out over the same worker
// budget. Every experiment is deterministic, so concurrent and serial
// runs produce byte-identical reports.
type Context struct {
	Cluster *hw.Cluster
	// FigureDir, when non-empty, receives SVG renditions of the
	// figure-shaped experiment outputs (clipbench -svg).
	FigureDir string
	// Workers bounds the concurrency of the suite runner and of the
	// heavyweight experiments' inner sweeps; 0 or negative means
	// GOMAXPROCS, 1 forces fully serial execution.
	Workers int
	// BaseCtx, when non-nil, bounds the whole suite: a driver can attach
	// signal handling or a deadline and every worker pool stops
	// dispatching once it is done. Nil means context.Background().
	BaseCtx context.Context

	mu    sync.Mutex
	model *perfmodel.NPModel
	clip  *core.CLIP
	run   context.Context
}

// runCtx returns the context the current suite run operates under:
// the internal per-run context while RunSuite is active (so one failed
// experiment cancels its siblings), else BaseCtx, else Background.
func (c *Context) runCtx() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.run != nil {
		return c.run
	}
	if c.BaseCtx != nil {
		return c.BaseCtx
	}
	return context.Background()
}

// setRunCtx installs (or clears) the per-run context.
func (c *Context) setRunCtx(ctx context.Context) {
	c.mu.Lock()
	c.run = ctx
	c.mu.Unlock()
}

// workers resolves the effective worker count.
func (c *Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(i) for i in [0, n) from a bounded worker pool and
// waits for all of them. With one worker (or n == 1) it degenerates to
// a plain loop, keeping serial runs strictly serial. Once the run
// context is cancelled no further indices are dispatched; indices
// already running complete (experiments are deterministic and their
// partial output is discarded by the caller on error anyway).
func (c *Context) forEach(n int, fn func(i int)) {
	ctx := c.runCtx()
	w := c.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}

// SaveLine writes an SVG line chart into FigureDir (no-op when unset).
func (c *Context) SaveLine(name, title, xLabel, yLabel string, x []float64, names []string, ys [][]float64) error {
	if c.FigureDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.FigureDir, name+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.SVGLineChart(f, title, xLabel, yLabel, x, names, ys)
}

// SaveBars writes an SVG grouped bar chart into FigureDir (no-op when
// unset).
func (c *Context) SaveBars(name, title string, labels, names []string, values [][]float64) error {
	if c.FigureDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(c.FigureDir, name+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.SVGBarChart(f, title, labels, names, values)
}

// NewContext builds a context on the paper's 8-node Haswell testbed.
func NewContext() *Context { return &Context{Cluster: hw.Haswell()} }

// npModel returns the NP regression for the testbed's node spec,
// training it on first use. Experiments that build their own CLIP
// instance over that spec give it a fresh knowledge table
// (core.NewKnowledge) over this model.
func (c *Context) npModel() (*perfmodel.NPModel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.model == nil {
		m, err := core.TrainNPModel(c.Cluster.Spec())
		if err != nil {
			return nil, err
		}
		c.model = m
	}
	return c.model, nil
}

// CLIP returns the shared scheduler, constructing it on first use.
func (c *Context) CLIP() (*core.CLIP, error) {
	m, err := c.npModel()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clip == nil {
		cl, err := core.New(c.Cluster, core.Options{Knowledge: core.NewKnowledge(c.Cluster.Spec(), m)})
		if err != nil {
			return nil, err
		}
		c.clip = cl
	}
	return c.clip, nil
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the short handle (fig1..fig9, tab1, tab2, abl-*, optimal).
	ID string
	// Title is a one-line description.
	Title string
	// Paper describes the corresponding artifact in the paper.
	Paper string
	// Hidden excludes the experiment from the "all" suite (long-running
	// extras like the chaos sweep, which are invoked by ID).
	Hidden bool
	// Run executes the experiment and writes its report.
	Run func(ctx *Context, w io.Writer) error
}

var (
	regMu    sync.Mutex
	registry []Experiment

	indexOnce sync.Once
	index     map[string]Experiment
)

// register adds an experiment (called from init functions of the
// per-figure files).
func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// All returns every registered experiment, ordered by ID with figures
// first.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment via an index built once (the registry is
// immutable after package init), not a copy-and-sort of the registry
// per lookup.
func ByID(id string) (Experiment, bool) {
	indexOnce.Do(func() {
		index = make(map[string]Experiment, len(registry))
		for _, e := range All() {
			index[e.ID] = e
		}
	})
	e, ok := index[id]
	return e, ok
}

// RunSuite executes the experiments named by ids in order, writing
// each report (separated by a blank line, as cmd/clipbench always has)
// to w. Experiments run concurrently from the context's worker pool
// into per-experiment buffers; reports are flushed in input order, so
// the bytes written are identical to a serial run. The first
// experiment error cancels the rest of the suite (experiments not yet
// dispatched are skipped; a driver cancellation via BaseCtx does the
// same); the output produced by the preceding experiments is still
// flushed and the root-cause error is returned — a real experiment
// failure is reported in preference to the bare context.Canceled of
// the experiments it cancelled.
func RunSuite(ctx *Context, w io.Writer, ids []string) error {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return fmt.Errorf("bench: unknown experiment %q", id)
		}
		exps[i] = e
	}
	base := ctx.BaseCtx
	if base == nil {
		base = context.Background()
	}
	rctx, cancel := context.WithCancel(base)
	defer cancel()
	ctx.setRunCtx(rctx)
	defer ctx.setRunCtx(nil)
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	started := make([]bool, len(exps))
	ctx.forEach(len(exps), func(i int) {
		started[i] = true
		start := time.Now()
		errs[i] = exps[i].Run(ctx, &bufs[i])
		if errs[i] != nil {
			cancel()
		}
		elapsed := time.Since(start).Seconds()
		mExperiments.Inc()
		mExperimentSeconds.Observe(elapsed)
		telemetry.Default.Gauge(
			telemetry.Label("clip_bench_experiment_wall_seconds", "exp", exps[i].ID),
			"wall time of the most recent run of the experiment").Set(elapsed)
	})
	for i := range exps {
		if !started[i] && errs[i] == nil {
			errs[i] = rctx.Err() // skipped after cancellation
		}
	}
	var firstErr error
	for i := range exps {
		if errs[i] != nil {
			e := fmt.Errorf("%s: %w", exps[i].ID, errs[i])
			if firstErr == nil || errors.Is(firstErr, context.Canceled) && !errors.Is(e, context.Canceled) {
				firstErr = e
			}
			continue
		}
		if firstErr != nil {
			continue // don't flush reports past the first failure
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return firstErr
}

// header prints a standard experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "(paper: %s)\n\n", e.Paper)
}

// suiteApps returns the Table II applications in a stable order.
func suiteApps() []*workload.Spec { return workload.Suite() }

// appByName resolves any catalogue application.
func appByName(name string) (*workload.Spec, error) { return workload.SuiteByName(name) }

// planAllCores builds the naive all-core plan at a uniform split of the
// bound over n nodes, with the baselines' static DRAM allocation.
func planAllCores(ctx *Context, nodes int, bound float64) *plan.Plan {
	perNode := bound / float64(nodes)
	mem := baseline.DefaultMemWatts
	return &plan.Plan{
		NodeIDs:  plan.FirstN(nodes),
		Cores:    ctx.Cluster.Spec().Cores(),
		Affinity: workload.Scatter,
		PerNode:  plan.UniformBudgets(nodes, power.Budget{CPU: perNode - mem, Mem: mem}),
	}
}
