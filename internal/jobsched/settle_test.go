package jobsched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/workload"
)

// unsettledUntil fires every event due at or before t one at a time,
// clearing the dispatch memo before each, so every dispatch the
// reference session runs is a full rescan.
func unsettledUntil(t *testing.T, o *Online, until float64) {
	t.Helper()
	for {
		next, ok := o.Next()
		if !ok || next > until {
			return
		}
		o.st.settled.ok = false
		if err := o.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameSessions requires two sessions to agree on every observable: job
// listing, cluster snapshot, first failure, and the run statistics with
// the fault log.
func sameSessions(t *testing.T, tag string, got, want *Online) {
	t.Helper()
	if fmt.Sprint(got.Err()) != fmt.Sprint(want.Err()) {
		t.Fatalf("%s: error %v, full rescan %v", tag, got.Err(), want.Err())
	}
	if g, w := got.Jobs(), want.Jobs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Jobs() differ from the full rescan\n got %+v\nwant %+v", tag, g, w)
	}
	if g, w := got.Cluster(), want.Cluster(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Cluster() differs from the full rescan\n got %+v\nwant %+v", tag, g, w)
	}
	if !reflect.DeepEqual(*got.st.stats, *want.st.stats) {
		t.Fatalf("%s: stats or fault log differ from the full rescan\n got %+v\nwant %+v",
			tag, *got.st.stats, *want.st.stats)
	}
}

// TestSettleMemoMatchesFullRescan drives seeded traces — mixed
// priorities, cancels, bound swings, evacuations, reconciles and time
// advances, under node crashes, power excursions and stragglers —
// through two sessions: one dispatches with the settled-queue memo, the
// other clears it before every event and so always rescans the whole
// queue. After every step the two must be indistinguishable, for each
// policy with preemption on and off.
func TestSettleMemoMatchesFullRescan(t *testing.T) {
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(),
		pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{0, 0, 0, 2, 5}
	hits := 0
	for _, pol := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		for _, preempt := range []bool{false, true} {
			for _, seed := range []uint64{1, 2} {
				tag := fmt.Sprintf("%s preempt=%v seed=%d", pol, preempt, seed)
				cfg := Config{Bound: 2400, Policy: pol, Reallocate: seed == 2, Preempt: preempt,
					Faults: &faults.Scenario{Seed: seed, CrashMTBF: 600, MTTR: 40,
						ExcursionMTBF: 300, StragglerMTBF: 100, StragglerFactor: 8}}
				memo, ref := online(t, cfg), online(t, cfg)
				r := rng.New(seed)
				var known []string
				for ev := 0; ev < 600; ev++ {
					if memo.st.settled.ok && memo.st.settled.res == memo.st.resStamp() {
						hits++
					}
					unsettledUntil(t, ref, ref.Now())
					ref.st.settled.ok = false
					both := func(op func(o *Online) error) {
						for _, o := range []*Online{memo, ref} {
							if err := op(o); err != nil {
								t.Fatalf("%s ev %d: %v", tag, ev, err)
							}
						}
					}
					switch op := r.Intn(100); {
					case op < 40:
						id := fmt.Sprintf("j%04d", ev)
						app, pri := apps[r.Intn(len(apps))], pris[r.Intn(len(pris))]
						both(func(o *Online) error { _, err := o.SubmitPri(id, app, pri); return err })
						known = append(known, id)
					case op < 55:
						// Half the cancels hit the dispatch head, whose
						// removal promotes the next entry.
						id := ""
						if r.Intn(2) == 0 {
							if e := memo.st.topQueued(); e != nil {
								id = e.job.ID
							}
						} else if len(known) > 0 {
							id = known[r.Intn(len(known))]
						}
						if js, err := memo.Status(id); err == nil && !js.State.Terminal() {
							both(func(o *Online) error { _, err := o.Cancel(id); return err })
						}
					case op < 62:
						w := 1200 + 2400*r.Float64()
						both(func(o *Online) error { return o.SetBound(w) })
					case op < 64:
						both(func(o *Online) error { o.EvacuateQueued(); return nil })
					case op < 66:
						both(func(o *Online) error { return o.Reconcile() })
					default:
						until := memo.Now() + 25*r.Float64()
						unsettledUntil(t, ref, until)
						both(func(o *Online) error { return o.Advance(until) })
					}
					sameSessions(t, fmt.Sprintf("%s ev %d", tag, ev), memo, ref)
				}
				unsettledUntil(t, ref, ref.Now())
				ref.st.settled.ok = false
				for _, o := range []*Online{memo, ref} {
					if err := o.Drain(); err != nil {
						t.Fatalf("%s drain: %v", tag, err)
					}
				}
				sameSessions(t, tag+" drained", memo, ref)
			}
		}
	}
	t.Logf("%d steps began with a settled memo", hits)
	if hits == 0 {
		t.Fatal("the memo never applied; the comparison tested nothing")
	}
}
