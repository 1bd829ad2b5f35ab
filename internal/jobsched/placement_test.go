package jobsched

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// variableSession opens a session of cfg on an n-node cluster of the
// test spec with a σ 0.08 efficiency spread, sharing the test CLIP's
// knowledge table.
func variableSession(t *testing.T, n int, cfg Config) *Online {
	t.Helper()
	cl := hw.NewCluster(n, testCl.Spec(), 0.08, 1)
	c, err := core.New(cl, core.Options{Knowledge: clip(t).Knowledge()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cl, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBudgetsNameJobNodes fills nodes 0-7 of a 16-node σ 0.08 cluster
// with a pinned job and then places a second job on the nodes left
// free: the second job's rebalance event and its per-node budget gauges
// must name the nodes it runs on (JobStatus.Nodes), not positions in
// the free set.
func TestBudgetsNameJobNodes(t *testing.T) {
	o := variableSession(t, 16, Config{Bound: 6000})
	submitAs(t, o, "pinned", pinnedApp(0, 7), 0, JobRunning)
	if nodes := statusOf(t, o, "pinned").Nodes; slices.Max(nodes) > 7 {
		t.Fatalf("pinned job runs on %v", nodes)
	}
	ring := telemetry.Default.Events()
	before := ring.Total()
	submitAs(t, o, "free", workload.CoMD(), 0, JobRunning)
	js := statusOf(t, o, "free")
	if slices.Equal(js.Nodes, plan.FirstN(len(js.Nodes))) {
		t.Fatalf("second job runs on %v, the first positions; the test shows nothing", js.Nodes)
	}
	n := ring.Total() - before
	evs := ring.Snapshot()
	var rebalances []telemetry.Event
	for _, ev := range evs[uint64(len(evs))-n:] {
		if ev.Kind == telemetry.KindRebalance {
			rebalances = append(rebalances, ev)
		}
	}
	if len(rebalances) != 1 {
		t.Fatalf("second placement appended %d rebalance events, want 1", len(rebalances))
	}
	var ids []int
	for _, nb := range rebalances[0].PerNode {
		ids = append(ids, nb.Node)
		g := telemetry.Default.Gauge(telemetry.Label("clip_node_budget_cpu_watts", "node", strconv.Itoa(nb.Node)), "")
		if g.Value() != nb.CPUWatts {
			t.Errorf("node %d: budget gauge %v W, rebalance event %v W", nb.Node, g.Value(), nb.CPUWatts)
		}
	}
	if !slices.Equal(ids, js.Nodes) {
		t.Errorf("rebalance event names nodes %v, the job runs on %v", ids, js.Nodes)
	}
}

// TestPreviewRetuneScoresJobNodes pins a job to nodes 4-7 of an 8-node
// σ 0.08 cluster, whose efficiencies differ from nodes 0-3: under every
// budget of a sweep, a retune preview must score the job's own nodes,
// as the simulator does on a cluster of just those nodes, and under at
// least one budget that score must differ from nodes 0-3's.
func TestPreviewRetuneScoresJobNodes(t *testing.T) {
	o := variableSession(t, 8, Config{Bound: 3000})
	submitAs(t, o, "pinned", pinnedApp(4, 7), 0, JobRunning)
	st := o.st
	rj := st.slots[record(st, "pinned").run]
	cl := st.s.Cluster
	view := &hw.Cluster{LinkBW: cl.LinkBW, CommBaseLatency: cl.CommBaseLatency}
	for i, id := range rj.nodeIDs {
		view.Nodes = append(view.Nodes, &hw.Node{ID: i, Spec: cl.Nodes[id].Spec, PowerEff: cl.Nodes[id].PowerEff})
	}
	app := st.apps[st.recs[rj.rec].app].spec
	// A sweep of CPU budgets up to the job's own: where the cap holds
	// the frequency down, a node's efficiency sets its speed.
	apart := 0
	for cpu := 40.0; cpu <= rj.perNode.CPU; cpu += 10 {
		b := power.Budget{CPU: cpu, Mem: rj.perNode.Mem}
		cfg := sim.Config{
			Nodes: len(rj.nodeIDs), CoresPerNode: rj.cores, Affinity: rj.affinity,
			Capped: true, Budget: b,
		}
		want, err := sim.EvalTime(view, app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := sim.EvalTime(cl, app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first != want {
			apart++
		}
		got, err := st.previewRetune(rj, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("preview on nodes %v under %v: %+v, want %+v", rj.nodeIDs, b, got, want)
		}
	}
	if apart == 0 {
		t.Fatalf("nodes %v score like nodes 0..%d under every budget; the test shows nothing", rj.nodeIDs, len(rj.nodeIDs)-1)
	}
}
