package jobsched

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/coordinator"
	"repro/internal/hw"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/workload"
)

// prefixVictims is the test's own answer to submitting app at priority
// pri to o now, computed without the scheduler's planner, scratch or
// memo. It returns the ids the scheduler must evict, in eviction
// order: none when the job starts as it is, otherwise the shortest
// prefix of the strictly-lower-priority running jobs, ordered by
// (priority, watts, id), after whose eviction a fresh coordinator
// places the job on the freed nodes and watts within the constraint
// filter and the CapOK gate. ok is false when no prefix suffices. lower
// is the number of strictly-lower-priority running jobs.
func prefixVictims(t *testing.T, o *Online, app *workload.Spec, pri int) (victims []string, ok bool, lower int) {
	t.Helper()
	st := o.st
	cl := st.s.Cluster
	type cand struct {
		id    string
		pri   int
		watts float64
		nodes []int
	}
	var cands []cand
	busy := make([]bool, len(cl.Nodes))
	running := 0
	for _, rj := range st.slots {
		if !rj.live {
			continue
		}
		running++
		for _, g := range rj.globalIDs {
			busy[g] = true
		}
		if p := st.recs[rj.rec].pri; p < pri {
			cands = append(cands, cand{st.ids[rj.rec], p, rj.powerUsed, rj.globalIDs})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.pri != b.pri {
			return a.pri < b.pri
		}
		if a.watts != b.watts {
			return a.watts < b.watts
		}
		return a.id < b.id
	})
	adv, err := st.s.CLIP.Advisor(app)
	if err != nil {
		t.Fatal(err)
	}
	grid := recommend.NewGrid(cl.Spec(), adv.Profile(), adv.Predictor()) // searched afresh, no shared answers
	if len(app.Constraint.PreferNodes) > 0 {
		t.Fatalf("%s prefers nodes; the reference does not rank", app.Name)
	}
	watts := o.FreeWatts()
	var pool []int
	for id, b := range busy {
		if !b {
			pool = append(pool, id)
		}
	}
	for k := 0; k <= len(cands); k++ {
		if k > 0 {
			watts += cands[k-1].watts
			pool = append(pool, cands[k-1].nodes...)
		}
		sub := &hw.Cluster{LinkBW: cl.LinkBW, CommBaseLatency: cl.CommBaseLatency}
		ids := append([]int(nil), pool...)
		sort.Ints(ids)
		for _, id := range ids {
			if n := cl.Nodes[id]; app.Constraint.Allows(id, n.PowerEff) {
				sub.Nodes = append(sub.Nodes, &hw.Node{ID: len(sub.Nodes), Spec: n.Spec, PowerEff: n.PowerEff})
			}
		}
		if watts <= 0 || len(sub.Nodes) == 0 {
			continue
		}
		co := coordinator.Coordinator{Cluster: sub, Quiet: true}
		d, err := co.Schedule(app, grid, watts)
		if err != nil || !d.NodeCfg.CapOK && running-k > 0 {
			continue
		}
		for _, c := range cands[:k] {
			victims = append(victims, c.id)
		}
		return victims, true, len(cands)
	}
	return nil, false, len(cands)
}

// TestPreemptionMatchesPrefixSearch drives small seeded traces with
// preemption on and checks every submission against prefixVictims:
// the scheduler must evict exactly the reference prefix, and the job
// must run exactly when the reference places it. Queued jobs are
// cancelled before each submission, so the submitted job is the only
// one that can preempt; any eviction outside a checked submission
// fails the test.
func TestPreemptionMatchesPrefixSearch(t *testing.T) {
	apps := []*workload.Spec{
		workload.CoMD(), workload.LUMZ(), workload.TeaLeaf(),
		pinnedApp(0, 1), pinnedApp(2, 3), pinnedApp(0, 3), pinnedApp(4, 7), pinnedApp(2, 5),
	}
	checked, evictions, busy := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		o := online(t, Config{Bound: 1500 + 2500*r.Float64(), Preempt: true})
		logged := 0
		preempts := func(from int) []string {
			var ids []string
			for _, fe := range o.st.stats.FaultLog[from:] {
				if fe.Kind == "preempt" {
					ids = append(ids, fe.Job)
				}
			}
			return ids
		}
		for i := 0; i < 16; i++ {
			for _, js := range o.Jobs() {
				if js.State == JobQueued {
					if _, err := o.Cancel(js.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			if r.Intn(3) == 0 {
				if err := o.Advance(o.Now() + 40*r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if got := preempts(logged); len(got) > 0 {
				t.Fatalf("seed %d: %v evicted outside a checked submission", seed, got)
			}
			app, pri := apps[r.Intn(len(apps))], r.Intn(4)
			want, ok, lower := prefixVictims(t, o, app, pri)
			logged = len(o.st.stats.FaultLog)
			id := fmt.Sprintf("s%d-%d", seed, i)
			js, err := o.SubmitPri(id, app, pri)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Err(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got := preempts(logged)
			for _, fe := range o.st.stats.FaultLog[logged:] {
				if fe.Kind == "preempt" && !strings.HasSuffix(fe.Detail, " "+id) {
					t.Fatalf("seed %d: %s evicted for another job: %s", seed, fe.Job, fe.Detail)
				}
			}
			logged = len(o.st.stats.FaultLog)
			if !reflect.DeepEqual(got, want) || (js.State == JobRunning) != ok {
				t.Fatalf("seed %d: %s (%s, priority %d): evicted %v and state %v; reference evicts %v, places %v",
					seed, id, app.Name, pri, got, js.State, want, ok)
			}
			checked++
			if len(want) > 0 {
				evictions++
				if lower >= 2 && lower <= 6 {
					busy++
				}
			}
		}
	}
	t.Logf("%d submissions checked, %d preempted, %d of them with 2-6 lower-priority jobs running", checked, evictions, busy)
	if busy < 10 {
		t.Errorf("only %d preemptions with 2-6 lower-priority jobs running; the traces are too thin", busy)
	}
}
