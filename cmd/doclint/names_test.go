package main

import (
	"strings"
	"sync"
	"testing"
)

// repoDecls parses the repository once per test binary.
var repoDecls = sync.OnceValues(func() (*decls, error) { return loadDecls("../..") })

func TestResolves(t *testing.T) {
	d, err := repoDecls()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		span string
		want bool
	}{
		{"coordinator.Place", true},
		{"Coordinator.Publish", true},
		{"jobsched:TestBudgetsNameJobNodes", true},
		{"cmd:TestClipbenchGolden", true},
		{"st.nodes[i]", true},
		{"Knowledge.Profiles()", true},
		{"e.pl.NodeIDs", true},
		{"Ranked", false},
		{"rankCmp", false},
		{"newRecord", false},
		{"coordinator.Ranked", false},
		{"Coordinator.Quiet", false},
		{"jobsched:TestNoSuchTest", false},
		{"nosuchpkg:TestBudgetsNameJobNodes", false},
		{"st.noSuchField", false},
		// Out of scope by pattern.
		{"slices.SortFunc", true},
		{"BENCH_results.json", true},
		{"-telemetry-out", true},
		{"clip_des_events_total", true},
		{"clip_node_budget_cpu_watts{node=…}", true},
		{`events[kind="rebalance"].per_node`, true},
		{"GOMAXPROCS", true},
		{"NaN", true},
		{"go test ./...", true},
		{"register", true},
	} {
		if got := d.resolves(c.span); got != c.want {
			t.Errorf("resolves(%q) = %v, want %v", c.span, got, c.want)
		}
	}
}

// TestCheckDocReadsSpansAndDiagrams checks which parts of a document
// are read: backticked spans in prose and parenthesized names in a
// diagram, but nothing in a fenced block with a language.
func TestCheckDocReadsSpansAndDiagrams(t *testing.T) {
	d, err := repoDecls()
	if err != nil {
		t.Fatal(err)
	}
	doc := "Prose names `Ranked` and `coordinator.Place`.\n" +
		"```\n│ (feasiblePool) (pickNodes) (MTTR)\n```\n" +
		"```sh\n(rankCmp) `Quiet`\n```\n"
	var out strings.Builder
	n, err := d.checkDoc("doc.md", strings.NewReader(doc), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "doc.md:1: `Ranked`\ndoc.md:3: `feasiblePool`\n"
	if n != 2 || out.String() != want {
		t.Errorf("checkDoc found %d:\n%s\nwant 2:\n%s", n, out.String(), want)
	}
}

// TestCheckDocRejectsRoadmapItems: a ROADMAP item cited by number is
// reported at the line it starts on, also when it wraps, in prose and
// in a fenced block; ROADMAP named without a number is not.
func TestCheckDocRejectsRoadmapItems(t *testing.T) {
	d, err := repoDecls()
	if err != nil {
		t.Fatal(err)
	}
	doc := "Registries are (ROADMAP item 10).\n" +
		"Duty cycling (see ROADMAP\nitem 9) and ROADMAP's items 3.\n" +
		"The ROADMAP's open items and item 4 of a list.\n" +
		"```sh\n# ROADMAP item 12\n```\n"
	var out strings.Builder
	n, err := d.checkDoc("doc.md", strings.NewReader(doc), &out)
	if err != nil {
		t.Fatal(err)
	}
	want := "doc.md:1: ROADMAP item 10 (name the work in words)\n" +
		"doc.md:2: ROADMAP item 9 (name the work in words)\n" +
		"doc.md:3: ROADMAP's items 3 (name the work in words)\n" +
		"doc.md:6: ROADMAP item 12 (name the work in words)\n"
	if n != 4 || out.String() != want {
		t.Errorf("checkDoc found %d:\n%s\nwant 4:\n%s", n, out.String(), want)
	}
}

// TestDocsNameRealCode is the check make docs runs, on the documents
// it names.
func TestDocsNameRealCode(t *testing.T) {
	d, err := repoDecls()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ARCHITECTURE.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		var out strings.Builder
		n, err := lintDoc(d, "../../"+name, &out)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			t.Errorf("%d name(s) resolve to no declaration:\n%s", n, out.String())
		}
	}
}
