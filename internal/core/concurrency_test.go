package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestConcurrentSchedule hammers one CLIP instance from many
// goroutines across applications and bounds; run under -race this
// asserts the cache layer is race-clean, and the decision comparison
// asserts concurrency does not change results.
func TestConcurrentSchedule(t *testing.T) {
	clip, err := New(hw.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	apps := []*workload.Spec{workload.SPMZ(), workload.LUMZ(), workload.CoMD(), workload.TeaLeaf()}
	bounds := []float64{800, 1200, 1800}

	// Serial reference decisions.
	type key struct {
		app   string
		bound float64
	}
	want := make(map[key]string)
	for _, app := range apps {
		for _, b := range bounds {
			d, err := clip.Schedule(app, b)
			if err != nil {
				t.Fatal(err)
			}
			want[key{app.Name, b}] = d.Plan.Notes
		}
	}

	fresh, err := New(hw.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				app := apps[(g+i)%len(apps)]
				b := bounds[(g*7+i)%len(bounds)]
				d, err := fresh.Schedule(app, b)
				if err != nil {
					errs <- err
					return
				}
				if d.Plan.Notes != want[key{app.Name, b}] {
					t.Errorf("concurrent decision for %s@%.0f diverged", app.Name, b)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScheduleSharesCachedDecision: a repeated request is served the
// cached decision itself, read-only, and CLIP.Plan returns its plan.
func TestScheduleSharesCachedDecision(t *testing.T) {
	clip, err := New(hw.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	app := workload.SPMZ()
	d1, err := clip.Schedule(app, 1200)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := clip.Schedule(app, 1200)
	if err != nil {
		t.Fatal(err)
	}
	p, err := clip.Plan(clip.Cluster, app, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || p != d1.Plan {
		t.Errorf("repeated requests got decisions %p, %p and plan %p; want one cached decision %p and its plan",
			d1, d2, p, d1)
	}
}

// TestConcurrentProfileSharesWork checks that concurrent first requests
// for one application leave one profile in the knowledge table.
func TestConcurrentProfileSharesWork(t *testing.T) {
	clip, err := New(hw.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	app := workload.AMG()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := clip.Profile(app); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := len(clip.Knowledge().Profiles()); n != 1 {
		t.Errorf("knowledge table holds %d profiles, want 1", n)
	}
}

// TestOneFillPerKey starts 16 goroutines that each ask a fresh CLIP for
// one application's advisor and for one decision. The entry locks
// must let exactly one of them profile and coordinate: one profiling
// pass, one profile miss, one decision miss, and every goroutine sees
// the same decision. A profiling pass takes microseconds, so the test
// repeats on fresh instances to make the goroutines overlap in it.
func TestOneFillPerKey(t *testing.T) {
	model, err := TrainNPModel(hw.HaswellSpec())
	if err != nil {
		t.Fatal(err)
	}
	passes := telemetry.Default.Counter("clip_profiling_passes_total", "")
	counters := []string{"clip_profile_cache_hits_total", "clip_profile_cache_misses_total",
		"clip_decision_cache_misses_total", "clip_profile_sample_runs_total"}
	const n = 16
	app := workload.AMG()
	for round := 0; round < 50 && !t.Failed(); round++ {
		cl := hw.Haswell()
		clip, err := New(cl, Options{Knowledge: NewKnowledge(cl.Spec(), model)})
		if err != nil {
			t.Fatal(err)
		}
		before := passes.Value()
		base := make(map[string]uint64, len(counters))
		for _, name := range counters {
			base[name] = telemetry.Default.Counter(name, "").Value()
		}
		plans := make([]*plan.Plan, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if _, err := clip.Advisor(app); err != nil {
					t.Error(err)
					return
				}
				d, err := clip.Schedule(app, 1200)
				if err != nil {
					t.Error(err)
					return
				}
				plans[g] = d.Plan
			}(g)
		}
		close(start)
		wg.Wait()

		if d := passes.Value() - before; d != 1 {
			t.Errorf("round %d: %d profiling passes, want 1", round, d)
		}
		count := func(name string) uint64 { return telemetry.Default.Counter(name, "").Value() - base[name] }
		hits, misses := count("clip_profile_cache_hits_total"), count("clip_profile_cache_misses_total")
		if misses != 1 || hits+misses != n+1 {
			t.Errorf("round %d: profile hits %d, misses %d; want 1 miss of %d calls", round, hits, misses, n+1)
		}
		if m := count("clip_decision_cache_misses_total"); m != 1 {
			t.Errorf("round %d: %d decision misses, want 1", round, m)
		}
		// Fig. 5's overhead claim: a Full pass costs at most 3 samples.
		if s := count("clip_profile_sample_runs_total"); s == 0 || s > 3 {
			t.Errorf("round %d: %d profile sample runs for one profiling pass, want 1 to 3", round, s)
		}
		for g, p := range plans {
			if p != nil && !reflect.DeepEqual(p, plans[0]) {
				t.Errorf("round %d: goroutine %d decision %+v, want %+v", round, g, p, plans[0])
			}
		}
	}
}

// TestOneSearchPerQuestion starts 16 goroutines on two CLIP instances
// that share a fresh knowledge table; each asks its instance for one
// application's advisor and then the same node-level questions, two of
// them in one budget interval. The table must profile once and fill
// each interval the questions fall in once (one search per fill), and
// every goroutine must read the same answers. Each round uses a fresh
// table.
func TestOneSearchPerQuestion(t *testing.T) {
	spec := hw.HaswellSpec()
	model, err := TrainNPModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	passes := telemetry.Default.Counter("clip_profiling_passes_total", "")
	searches := telemetry.Default.Counter("clip_recommend_calls_total", "")
	const n = 16
	app := workload.LUMZ()
	budgets := []float64{60, 60 + 1e-7, 140, 220}
	const intervals = 3
	for round := 0; round < 50 && !t.Failed(); round++ {
		know := NewKnowledge(spec, model)
		var clips [2]*CLIP
		for i := range clips {
			if clips[i], err = New(hw.NewCluster(4, spec, 0.02, int64(i)), Options{Knowledge: know}); err != nil {
				t.Fatal(err)
			}
		}
		p0, s0 := passes.Value(), searches.Value()
		answers := make([][]float64, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				adv, err := clips[g%2].Advisor(app)
				if err != nil {
					t.Error(err)
					return
				}
				for _, b := range budgets {
					cfg, _ := adv.Best(b, 0)
					answers[g] = append(answers[g], cfg.PredIterTime, cfg.Budget.CPU)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if d := passes.Value() - p0; d != 1 {
			t.Errorf("round %d: %d profiling passes, want 1", round, d)
		}
		if d, n := searches.Value()-s0, know.Intervals(); d != uint64(n) || n != intervals {
			t.Errorf("round %d: %d searches, %d intervals filled, want %d of each", round, d, n, intervals)
		}
		for g := range answers {
			if !reflect.DeepEqual(answers[g], answers[0]) {
				t.Errorf("round %d: goroutine %d read %v, goroutine 0 %v", round, g, answers[g], answers[0])
			}
		}
	}
}
