package telemetry

import (
	"fmt"
	"math"
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

// TestFoldInto checks every fold rule: counters and histogram buckets
// add, gauges keep the larger reading, events append in order with
// Total/Dropped exact, metrics the destination lacks are created, and
// the source reads zero afterwards.
func TestFoldInto(t *testing.T) {
	dst, src := NewRegistry(), NewRegistry()
	dst.Counter("c", "").Add(3)
	src.Counter("c", "help c").Add(4)
	src.Counter(Label("only_src", "k", "v"), "help only").Add(2)
	dst.Gauge("g_low", "").Set(5)
	src.Gauge("g_low", "").Set(7)
	dst.Gauge("g_high", "").Set(9)
	src.Gauge("g_high", "").Set(1)
	bounds := []float64{1, 10}
	dh := dst.Histogram("h", "", bounds)
	sh := src.Histogram("h", "", bounds)
	dh.Observe(0.5)
	sh.Observe(0.5)
	sh.Observe(5)
	sh.Observe(50)
	src.Histogram("h_new", "help h", bounds).Observe(3)

	dst.events.cap, src.events.cap = 4, 3
	dst.Events().Append(Event{Kind: "d", Cores: 1})
	dst.Events().Append(Event{Kind: "d", Cores: 2})
	for i := 1; i <= 5; i++ { // the ring keeps src events 3..5
		src.Events().Append(Event{Kind: "s", Cores: i, PerNode: []NodeBudget{{Node: i}}})
	}

	src.FoldInto(dst)

	if got := dst.Counter("c", "").Value(); got != 7 {
		t.Errorf("counter = %d, want 3+4", got)
	}
	if got := dst.Counter(Label("only_src", "k", "v"), "").Value(); got != 2 {
		t.Errorf("source-only counter = %d, want 2", got)
	}
	if got := dst.Gauge("g_low", "").Value(); got != 7 {
		t.Errorf("gauge below source = %g, want max 7", got)
	}
	if got := dst.Gauge("g_high", "").Value(); got != 9 {
		t.Errorf("gauge above source = %g, want max 9", got)
	}
	want := []uint64{2, 1, 1} // le 1, le 10, +Inf (per bucket)
	for i, w := range want {
		if got := dh.counts[i].Load(); got != w {
			t.Errorf("histogram bucket %d = %d, want %d", i, got, w)
		}
	}
	if dh.Count() != 4 || dh.Sum() != 56 {
		t.Errorf("histogram count/sum = %d/%g, want 4/56", dh.Count(), dh.Sum())
	}
	if h := dst.Histogram("h_new", "", nil); h.Count() != 1 || len(h.bounds) != 2 {
		t.Errorf("source-only histogram: count %d, %d bounds; want 1, 2", h.Count(), len(h.bounds))
	}
	if got := dst.help["only_src"]; got != "help only" {
		t.Errorf("source-only help = %q", got)
	}

	// dst saw 2 own + 5 source events; its ring of 4 keeps d2, s3, s4, s5.
	if dst.Events().Total() != 7 || dst.Events().Dropped() != 3 {
		t.Errorf("dst total/dropped = %d/%d, want 7/3", dst.Events().Total(), dst.Events().Dropped())
	}
	evs := dst.Events().Snapshot()
	wantEv := []struct {
		kind  string
		cores int
		seq   uint64
	}{{"d", 2, 2}, {"s", 3, 5}, {"s", 4, 6}, {"s", 5, 7}}
	if len(evs) != len(wantEv) {
		t.Fatalf("dst retains %d events, want %d", len(evs), len(wantEv))
	}
	for i, w := range wantEv {
		e := evs[i]
		if e.Kind != w.kind || e.Cores != w.cores || e.Seq != w.seq {
			t.Errorf("event %d = %s/%d seq %d, want %s/%d seq %d", i, e.Kind, e.Cores, e.Seq, w.kind, w.cores, w.seq)
		}
		if e.Kind == "s" && (len(e.PerNode) != 1 || e.PerNode[0].Node != e.Cores) {
			t.Errorf("event %d per-node budgets %v, want node %d", i, e.PerNode, e.Cores)
		}
	}

	// The source is zeroed but keeps its metrics and stays usable.
	s := src.Snapshot()
	for name, v := range s.Counters {
		if v != 0 {
			t.Errorf("source counter %s = %d after fold", name, v)
		}
	}
	for name, v := range s.Gauges {
		if v != 0 {
			t.Errorf("source gauge %s = %g after fold", name, v)
		}
	}
	for name, h := range s.Histograms {
		if h.Count != 0 || h.Sum != 0 || h.Buckets[len(h.Buckets)-1].Count != 0 {
			t.Errorf("source histogram %s = %+v after fold", name, h)
		}
	}
	if len(s.Events) != 0 || s.EventsTotal != 0 || s.EventsDropped != 0 {
		t.Errorf("source events: %d retained, total %d, dropped %d after fold",
			len(s.Events), s.EventsTotal, s.EventsDropped)
	}
	src.Events().Append(Event{Kind: "again"})
	if got := src.Events().Snapshot(); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("source after fold: %+v, want one event with seq 1", got)
	}
}
