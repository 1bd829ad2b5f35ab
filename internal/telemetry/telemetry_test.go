package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentRegistry hammers every metric kind and the event log
// from many goroutines; under -race this pins the lock-free hot paths
// and the get-or-create constructors.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("c_total", "shared counter")
			ga := r.Gauge("g", "shared gauge")
			peak := r.Gauge("peak", "high-water mark")
			h := r.Histogram("h_seconds", "shared histogram", []float64{0.25, 0.5, 1})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Add(1)
				peak.SetMax(float64(g*perG + i))
				h.Observe(float64(i%4) * 0.3)
				// Distinct labelled series exercise constructor races.
				r.Counter(Label("labelled_total", "g", fmt.Sprint(g)), "per-goroutine").Inc()
				if i%10 == 0 {
					r.Events().Append(Event{Kind: KindSchedule, App: "app", Cores: i})
				}
			}
			// Concurrent readers.
			_ = r.Snapshot()
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := r.Counter("c_total", "").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.Gauge("g", "").Value(); got != total {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	if got := r.Gauge("peak", "").Value(); got != total-1 {
		t.Errorf("peak = %g, want %d", got, total-1)
	}
	h := r.Histogram("h_seconds", "", nil)
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	wantSum := float64(goroutines) * perG / 4 * (0 + 0.3 + 0.6 + 0.9)
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
	for g := 0; g < goroutines; g++ {
		name := Label("labelled_total", "g", fmt.Sprint(g))
		if got := r.Counter(name, "").Value(); got != perG {
			t.Errorf("%s = %d, want %d", name, got, perG)
		}
	}
	if got := r.Events().Total(); got != goroutines*perG/10 {
		t.Errorf("events total = %d, want %d", got, goroutines*perG/10)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(3)
	g.SetMax(1)
	if g.Value() != 3 {
		t.Errorf("SetMax lowered the gauge: %g", g.Value())
	}
	g.Set(-5)
	g.SetMax(-7)
	if g.Value() != -5 {
		t.Errorf("SetMax(-7) over -5 gave %g", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// le=1 -> {0.5, 1}; le=2 -> +{1.5, 2}; +Inf -> +{3}.
	want := []uint64{2, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le=%g) = %d, want %d", i, b.LE, b.Count, want[i])
		}
	}
	if s.Sum != 8 || s.Count != 5 {
		t.Errorf("sum/count = %g/%d, want 8/5", s.Sum, s.Count)
	}
}

func TestEventLogRing(t *testing.T) {
	l := EventLog{cap: 3}
	for i := 1; i <= 5; i++ {
		l.Append(Event{Kind: "k", Cores: i})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, e := range got {
		if want := uint64(i + 3); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if l.Total() != 5 || l.Dropped() != 2 {
		t.Errorf("total/dropped = %d/%d, want 5/2", l.Total(), l.Dropped())
	}

	// A lazily rendered detail is formatted by the read, not the append.
	r := &countingDetail{}
	l.Append(Event{Kind: KindFault, Render: r})
	if r.calls != 0 {
		t.Fatalf("Append rendered the detail %d times", r.calls)
	}
	last := l.Snapshot()[2]
	if last.Detail != "rendered" || last.Render != nil || r.calls != 1 {
		t.Errorf("snapshot detail %q, render %v, %d renders; want \"rendered\", nil, 1",
			last.Detail, last.Render, r.calls)
	}
}

// TestEventLogOwnsPerNode appends per-node events from one reused
// scratch slice, with lengths that vary and events without budgets in
// between, through and past the ring's wrap: every retained event must
// keep the budgets it was appended with. Before the ring wraps nothing
// is recycled, so the copies come from the slab, not one allocation
// each.
func TestEventLogOwnsPerNode(t *testing.T) {
	const capacity = 40
	l := EventLog{cap: capacity}
	var scratch []NodeBudget
	perNode := func(i int) []NodeBudget {
		scratch = scratch[:0]
		for n := 0; n < 1+i%5; n++ {
			scratch = append(scratch, NodeBudget{Node: n, CPUWatts: float64(i), MemWatts: float64(n)})
		}
		return scratch
	}
	const appends = 3 * capacity
	for i := 0; i < appends; i++ {
		if i%3 == 2 {
			l.Append(Event{Kind: KindSchedule, Cores: i})
			continue
		}
		l.Append(Event{Kind: KindRebalance, Cores: i, PerNode: perNode(i)})
	}
	for _, e := range l.Snapshot() {
		if e.Kind == KindSchedule {
			continue
		}
		if want := perNode(e.Cores); !slices.Equal(e.PerNode, want) {
			t.Errorf("event %d: per-node %v, want %v", e.Cores, e.PerNode, want)
		}
	}

	fresh := EventLog{}
	budgets := perNode(4)
	if a := testing.AllocsPerRun(200, func() {
		fresh.Append(Event{Kind: KindRebalance, PerNode: budgets})
	}); a != 0 {
		t.Errorf("%.0f allocations per per-node append before the ring wraps, want 0", a)
	}
}

// countingDetail is a lazily rendered event detail that counts renders.
type countingDetail struct{ calls int }

func (c *countingDetail) String() string { c.calls++; return "rendered" }

func TestLabel(t *testing.T) {
	if got := Label("m", "a", "1", "b", `x"y`); got != `m{a="1",b="x\"y"}` {
		t.Errorf("Label = %s", got)
	}
	if got := Label("m"); got != "m" {
		t.Errorf("Label with no pairs = %s", got)
	}
}
