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
		if p.Def != 0 && *p.Float(sc) != p.Def {
			t.Errorf("%s = %g, want its default %g", p.Key, *p.Float(sc), p.Def)
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
		"crash-mtbf=120,mttr=45,exc-mtbf=300,strag-mtbf=90,seed=3",
		"exc-mtbf=60,mttr=NaN,seed=7",
		"strag-mtbf=NaN",
		"crash-mtbf=60,mttr=-1",
		"crash-mtbf=60,mttr=-Inf,exc-mtbf=30",
		"crash-mtbf=+Inf,strag-mtbf=60",
		"exc-mtbf=-4,seed=18446744073709551615",
		"mttr=0,seed=18446744073709551615",
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
		"crash-mtbf=60,mttr=-Inf",
		"seed=-1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
	// The episode sizes, retry schedule and circuit breaker are fixed,
	// not keys.
	for _, k := range []string{"exc-frac", "exc-dur", "strag-factor", "strag-dur",
		"max-retries", "backoff", "backoff-cap", "jitter", "crash-limit"} {
		_, err := Parse("crash-mtbf=120," + k + "=1")
		if err == nil || !strings.Contains(err.Error(), "faults: unknown key \""+k+"\"") {
			t.Errorf("Parse with %s: %v, want an unknown-key error", k, err)
		}
	}
	_, err := Parse("bogus-key=1")
	keys := ScenarioGrammar.keys()
	if !sort.StringsAreSorted(keys) || len(keys) != len(ScenarioGrammar.Params) ||
		err == nil || !strings.Contains(err.Error(), "faults: unknown key \"bogus-key\" (known: "+strings.Join(keys, ", ")+")") {
		t.Errorf("unknown key: %v, want the sorted key list %v", err, keys)
	}
}

func TestScenarioStringListsEveryKey(t *testing.T) {
	sc := (&Scenario{Seed: 3, CrashMTBF: 60}).Normalized()
	const want = "crash-mtbf=60,mttr=30,exc-mtbf=0,strag-mtbf=0,seed=3"
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
	ok := (&Scenario{Seed: 1, MTTR: -3, ExcursionMTBF: 50}).Normalized()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.MTTR != ScenarioGrammar.param("mttr").Def {
		t.Fatalf("negative mttr did not take its default: %+v", ok)
	}
}
