package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

func newCLIP(t *testing.T) (*hw.Cluster, *CLIP) {
	t.Helper()
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	c, err := New(cl)
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

func TestNewValidatesCluster(t *testing.T) {
	bad := &hw.Cluster{LinkBW: 1}
	if _, err := New(bad); err == nil {
		t.Error("empty cluster accepted")
	}
}

// TestNewValidatesEnergyTolerance: New rejects a negative or NaN
// energy tolerance, which would fail every Schedule or silently act as
// the performance objective, and an accepted one schedules.
func TestNewValidatesEnergyTolerance(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	model, err := TrainNPModel(cl.Spec())
	if err != nil {
		t.Fatal(err)
	}
	know := NewKnowledge(cl.Spec(), model)
	for _, tc := range []struct {
		tolerance float64
		ok        bool
	}{
		{0, true},
		{0.1, true},
		{math.Inf(1), true},
		{math.Copysign(0, -1), true},
		{-0.1, false},
		{math.Inf(-1), false},
		{math.NaN(), false},
	} {
		c, err := New(cl, Options{Knowledge: know, EnergyTolerance: tc.tolerance})
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "energy tolerance") {
				t.Errorf("tolerance %v: error %v, want an energy tolerance error", tc.tolerance, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("tolerance %v: %v", tc.tolerance, err)
			continue
		}
		if _, err := c.Schedule(workload.CoMD(), 800); err != nil {
			t.Errorf("tolerance %v: %v", tc.tolerance, err)
		}
	}
}

func TestProfileCaching(t *testing.T) {
	_, c := newCLIP(t)
	app := workload.LUMZ()
	p1, err := c.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Profile call did not hit the knowledge database")
	}
	if n := len(c.Knowledge().Profiles()); n != 1 {
		t.Errorf("knowledge table holds %d profiles, want 1", n)
	}
}

// TestSharedKnowledge: instances over clusters of one node spec share
// a knowledge table, its NP model and its profiles; a table built for
// another spec is rejected.
func TestSharedKnowledge(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	base, err := New(cl)
	if err != nil {
		t.Fatal(err)
	}
	other := hw.NewCluster(2, cl.Spec(), 0.05, 7)
	clone, err := New(other, Options{Knowledge: base.Knowledge()})
	if err != nil {
		t.Fatal(err)
	}
	if clone.Knowledge() != base.Knowledge() || clone.NPModel != base.NPModel {
		t.Error("shared knowledge table or its NP model not used")
	}
	app := workload.LUMZ()
	p1, err := base.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := clone.Profile(app)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("instances sharing a table profiled the application twice")
	}
	if _, err := New(hw.Haswell(), Options{Knowledge: base.Knowledge()}); err == nil {
		t.Error("knowledge table of another node spec accepted")
	}
}

func TestScheduleAndRun(t *testing.T) {
	cl, c := newCLIP(t)
	app := workload.SPMZ()
	const bound = 1000.0
	d, err := c.Schedule(app, bound)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Plan.Validate(cl, bound); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(app, bound)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("no runtime")
	}
	if res.ManagedPower > bound+1e-6 {
		t.Errorf("managed power %v exceeds bound %v", res.ManagedPower, bound)
	}
}

func TestPlanRejectsForeignCluster(t *testing.T) {
	_, c := newCLIP(t)
	other := hw.NewCluster(8, hw.HaswellSpec(), 0, 2)
	if _, err := c.Plan(other, workload.CoMD(), 1000); err == nil {
		t.Error("foreign cluster accepted")
	}
}

func TestName(t *testing.T) {
	_, c := newCLIP(t)
	if c.Name() != "CLIP" {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestConcurrentScheduling(t *testing.T) {
	_, c := newCLIP(t)
	apps := workload.Suite()
	var wg sync.WaitGroup
	errs := make(chan error, len(apps)*2)
	for i := 0; i < 2; i++ {
		for _, app := range apps {
			wg.Add(1)
			go func(a *workload.Spec) {
				defer wg.Done()
				if _, err := c.Schedule(a, 1200); err != nil {
					errs <- err
				}
			}(app)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(c.Knowledge().Profiles()); n != len(apps) {
		t.Errorf("knowledge table holds %d profiles, want %d", n, len(apps))
	}
}

func TestScheduleRespectsBoundAcrossSuite(t *testing.T) {
	cl, c := newCLIP(t)
	for _, app := range workload.Suite() {
		for _, bound := range []float64{2400, 1200, 700} {
			d, err := c.Schedule(app, bound)
			if err != nil {
				t.Errorf("%s @%v: %v", app.Name, bound, err)
				continue
			}
			if err := d.Plan.Validate(cl, bound); err != nil {
				t.Errorf("%s @%v: %v", app.Name, bound, err)
			}
		}
	}
}

// TestBadBoundLeavesDecisionTable: a NaN, zero or -Inf bound is
// rejected before the decision table is read, so repeated calls leave
// no entry behind (a NaN key never matches, so each call would add
// one).
func TestBadBoundLeavesDecisionTable(t *testing.T) {
	_, c := newCLIP(t)
	app := workload.CoMD()
	if _, err := c.Schedule(app, 1000); err != nil {
		t.Fatal(err)
	}
	size := func() int {
		n := 0
		c.decisions.m.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	before := size()
	for i := 0; i < 4; i++ {
		for _, bound := range []float64{math.NaN(), 0, math.Inf(-1)} {
			if _, err := c.Schedule(app, bound); err == nil || !strings.Contains(err.Error(), "non-positive bound") {
				t.Errorf("bound %v: err %v, want a non-positive bound", bound, err)
			}
		}
	}
	if n := size(); n != before {
		t.Errorf("decision table grew from %d to %d entries", before, n)
	}
}
