package core

import (
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
	if c.DB().Len() != 1 {
		t.Errorf("db has %d entries, want 1", c.DB().Len())
	}
}

func TestInjectedNPModel(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	base, err := New(cl)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := New(cl, Options{NPModel: base.NPModel})
	if err != nil {
		t.Fatal(err)
	}
	if clone.NPModel != base.NPModel {
		t.Error("injected NP model not used")
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
	if c.DB().Len() != len(apps) {
		t.Errorf("db has %d entries, want %d", c.DB().Len(), len(apps))
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
