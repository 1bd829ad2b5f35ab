package faults

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestParseDefaultsAndRoundTrip(t *testing.T) {
	sc, err := Parse("crash-mtbf=120,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if sc.CrashMTBF != 120 || sc.Seed != 7 {
		t.Fatalf("parsed %+v", sc)
	}
	for _, p := range ScenarioGrammar.Params {
		if p.Rule != Literal && p.value(sc) != p.Def {
			t.Errorf("%s = %g, want its default %g", p.Key, p.value(sc), p.Def)
		}
	}
	if !sc.Enabled() {
		t.Fatal("crash-mtbf=120 should enable the scenario")
	}
	// The round trip through String is FuzzScenarioRoundTrip's.
}

// FuzzScenarioRoundTrip: every scenario Parse accepts renders to a spec
// that parses back to the same scenario, and is already normalized.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"crash-mtbf=120,seed=7",
		"crash-mtbf=120,backoff=5,backoff-cap=90,jitter=0.3,crash-limit=2",
		"exc-mtbf=60,exc-frac=NaN,seed=7",
		"strag-mtbf=60,strag-factor=NaN",
		"crash-mtbf=60,jitter=NaN",
		"crash-mtbf=60,jitter=-1",
		"crash-mtbf=60,mttr=-Inf,exc-mtbf=30,exc-dur=+Inf",
		"max-retries=-4,crash-limit=-9,seed=18446744073709551615",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			return
		}
		back, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its String %q rejected: %v", spec, sc.String(), err)
		}
		if *back != *sc {
			t.Fatalf("round trip of %q changed the scenario:\n  %+v\n  %+v", spec, *sc, *back)
		}
		if n := sc.Normalized(); n != *sc {
			t.Fatalf("Normalized changed the parsed %q:\n  %+v\n  %+v", spec, *sc, n)
		}
	})
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus-key=1",
		"crash-mtbf",
		"crash-mtbf=abc",
		"crash-mtbf=-5",
		"exc-frac=0.99,exc-mtbf=10",
		"jitter=99",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
	_, err := Parse("bogus-key=1")
	keys := ScenarioGrammar.keys()
	if !sort.StringsAreSorted(keys) || len(keys) != len(ScenarioGrammar.Params) ||
		err == nil || !strings.Contains(err.Error(), "faults: unknown key \"bogus-key\" (known: "+strings.Join(keys, ", ")+")") {
		t.Errorf("unknown key: %v, want the sorted key list %v", err, keys)
	}
}

func TestStreamsAreDeterministicAndIndependent(t *testing.T) {
	sc := Scenario{Seed: 42, CrashMTBF: 100, ExcursionMTBF: 200, StragglerMTBF: 150}
	n := sc.Normalized()
	a := NewInjector(n, 4)
	b := NewInjector(n, 4)
	// Interleave draws differently across the two injectors: per-node
	// per-class streams must still agree draw for draw.
	var aCrash, bCrash []float64
	for i := 0; i < 5; i++ {
		dt, _ := a.NextCrash(2)
		aCrash = append(aCrash, dt)
		a.NextExcursion(0) // extra traffic on other streams
		a.NextStraggler(1)
	}
	for i := 0; i < 5; i++ {
		b.NextExcursion(3)
		dt, _ := b.NextCrash(2)
		bCrash = append(bCrash, dt)
	}
	for i := range aCrash {
		if aCrash[i] != bCrash[i] {
			t.Fatalf("crash stream for node 2 diverged at draw %d: %g != %g", i, aCrash[i], bCrash[i])
		}
		if aCrash[i] <= 0 || math.IsInf(aCrash[i], 0) {
			t.Fatalf("bad inter-arrival %g", aCrash[i])
		}
	}
	// Different nodes draw different schedules.
	c := NewInjector(n, 4)
	d0, _ := c.NextCrash(0)
	d1, _ := c.NextCrash(1)
	if d0 == d1 {
		t.Fatalf("nodes 0 and 1 drew identical crash times %g", d0)
	}
}

func TestHealthStateMachine(t *testing.T) {
	sc := (&Scenario{Seed: 1, CrashMTBF: 10, CrashLimit: 2}).Normalized()
	in := NewInjector(sc, 2)
	if got := in.Health(0); got != Healthy {
		t.Fatalf("new node health = %v", got)
	}
	if h := in.RecordCrash(0); h != Quarantined {
		t.Fatalf("first crash -> %v, want quarantined", h)
	}
	if in.Unhealthy() != 1 {
		t.Fatalf("unhealthy = %d", in.Unhealthy())
	}
	if !in.Recover(0) || in.Health(0) != Healthy {
		t.Fatal("recover failed")
	}
	in.RecordCrash(0) // #2
	in.Recover(0)
	if h := in.RecordCrash(0); h != Drained { // #3 > limit 2
		t.Fatalf("crash beyond limit -> %v, want drained", h)
	}
	if in.Recover(0) {
		t.Fatal("drained node must not recover")
	}
	if _, ok := in.NextCrash(0); ok {
		t.Fatal("drained node must not crash again")
	}
	if in.DrainedCount() != 1 || in.AllDrained() {
		t.Fatalf("drained=%d allDrained=%v", in.DrainedCount(), in.AllDrained())
	}
	if h := in.RecordCrash(1); h != Drained && h != Quarantined {
		t.Fatalf("unexpected health %v", h)
	}
	// Drain node 1 too (limit 2: crashes 2 and 3 after recovery).
	in.Recover(1)
	in.RecordCrash(1)
	in.Recover(1)
	in.RecordCrash(1)
	if !in.AllDrained() {
		t.Fatalf("both nodes drained, AllDrained=false (health: %v, %v)", in.Health(0), in.Health(1))
	}
}

func TestBackoffCapJitterDeterminism(t *testing.T) {
	sc := (&Scenario{Seed: 9, CrashMTBF: 10}).Normalized()
	in := NewInjector(sc, 1)
	prev := 0.0
	for attempt := 1; attempt <= 10; attempt++ {
		d := in.Backoff("job-a", attempt)
		base := math.Min(sc.BackoffBase*math.Pow(2, float64(attempt-1)), sc.BackoffCap)
		if d < base || d > base*(1+sc.JitterFrac) {
			t.Fatalf("attempt %d: backoff %g outside [%g, %g]", attempt, d, base, base*(1+sc.JitterFrac))
		}
		if attempt > 6 && d > sc.BackoffCap*(1+sc.JitterFrac) {
			t.Fatalf("attempt %d: backoff %g exceeds cap", attempt, d)
		}
		_ = prev
		prev = d
	}
	// Stateless: same (job, attempt) always yields the same delay, and
	// distinct jobs get distinct jitter.
	if in.Backoff("job-a", 3) != in.Backoff("job-a", 3) {
		t.Fatal("backoff is not deterministic")
	}
	if in.Backoff("job-a", 3) == in.Backoff("job-b", 3) {
		t.Fatal("distinct jobs drew identical jitter")
	}
}

func TestScenarioStringListsEveryKey(t *testing.T) {
	sc := (&Scenario{Seed: 3, CrashMTBF: 60}).Normalized()
	const want = "crash-mtbf=60,mttr=30,exc-mtbf=0,exc-frac=0.3,exc-dur=20,strag-mtbf=0,strag-factor=1.5," +
		"strag-dur=15,max-retries=3,backoff=2,backoff-cap=60,jitter=0.25,crash-limit=5,seed=3"
	if got := sc.String(); got != want {
		t.Fatalf("String() = %q\nwant       %q", got, want)
	}
}

func TestNormalizedValidate(t *testing.T) {
	sc := Scenario{CrashMTBF: math.Inf(1)}
	n := sc.Normalized()
	if err := n.Validate(); err == nil {
		t.Fatal("infinite MTBF must not validate")
	}
	ok := (&Scenario{Seed: 1, ExcursionMTBF: 50}).Normalized()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.ExcursionFrac != ScenarioGrammar.param("exc-frac").Def || ok.ExcursionDur != ScenarioGrammar.param("exc-dur").Def {
		t.Fatalf("excursion defaults not applied: %+v", ok)
	}
}
