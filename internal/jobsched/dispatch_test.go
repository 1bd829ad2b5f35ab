package jobsched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// coldApps stands in for the queued-application count of a cold
// session: no pass ever refuses that many applications, so a cold pass
// never ends early.
const coldApps = math.MaxInt32

// makeCold clears every dispatch memo of st: the settled-queue memo,
// every dispatch-cache entry (decision, free-set copy and refusal stamp;
// only the live count, which is queue bookkeeping, survives) and the
// early end of a pass. The next event then decides everything from
// scratch and walks the whole queue, unless nothing is free: a pass
// then ends before the queue in both sessions, since every entry would
// be refused before anything else was read.
func makeCold(st *schedState) {
	st.settled.ok = false
	for i := range st.apps {
		dc := &st.apps[i].dc
		*dc = dispatchEntry{free: dc.free[:0], live: dc.live, pl: dc.pl}
	}
	st.qapps = coldApps
}

// coldUntil fires every event due at or before t one at a time, making
// the session cold before each.
func coldUntil(t *testing.T, o *Online, until float64) {
	t.Helper()
	for {
		next, ok := o.Next()
		if !ok || next > until {
			return
		}
		makeCold(o.st)
		if err := o.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameSessions requires two sessions to agree on every observable: job
// listing, cluster snapshot, first failure, and the run statistics with
// the fault log. want is the reference session.
func sameSessions(t *testing.T, tag string, got, want *Online) {
	t.Helper()
	if fmt.Sprint(got.Err()) != fmt.Sprint(want.Err()) {
		t.Fatalf("%s: error %v, reference %v", tag, got.Err(), want.Err())
	}
	if g, w := got.Jobs(), want.Jobs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Jobs() differ from the reference\n got %+v\nwant %+v", tag, g, w)
	}
	if g, w := got.Cluster(), want.Cluster(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Cluster() differs from the reference\n got %+v\nwant %+v", tag, g, w)
	}
	if !reflect.DeepEqual(*got.st.stats, *want.st.stats) {
		t.Fatalf("%s: stats or fault log differ from the reference\n got %+v\nwant %+v",
			tag, *got.st.stats, *want.st.stats)
	}
}

// checkQueueCounts recounts the per-application live entries and the
// queued-application count from the queue itself.
func checkQueueCounts(t *testing.T, tag string, st *schedState) {
	t.Helper()
	live := map[int32]int{}
	for li := range st.levels {
		l := &st.levels[li]
		for _, e := range l.q[l.head:] {
			if !e.started {
				if e.app != st.recs[e.rec].app {
					t.Fatalf("%s: queue entry of %s names application %d, its record %d",
						tag, st.ids[e.rec], e.app, st.recs[e.rec].app)
				}
				live[e.app]++
			}
		}
	}
	for i := range st.apps {
		if a := &st.apps[i]; a.dc.live != live[int32(i)] {
			t.Fatalf("%s: %s has live count %d, queue holds %d", tag, a.spec.Name, a.dc.live, live[int32(i)])
		}
	}
	if st.qapps != len(live) {
		t.Fatalf("%s: qapps %d, queue holds %d applications", tag, st.qapps, len(live))
	}
}

// liveRecords lists the arena indices of the records the id index
// holds, by id.
func liveRecords(st *schedState) map[string]int32 {
	recs := map[string]int32{}
	st.jobs.Each(func(i int32) { recs[st.ids[i]] = i })
	return recs
}

// record returns id's record, or nil when the id index lacks it. The
// pointer is valid until the session takes its next record.
func record(st *schedState, id string) *jobRecord {
	if i, ok := st.jobs.Lookup(id, st.recID); ok {
		return &st.recs[i]
	}
	return nil
}

// checkRecords requires every job record to match where its job
// physically is: a running record's slot is live and holds it, a
// retrying record's backoff event is pending, a queued record has
// exactly one live queue entry, a terminal record holds no slot,
// backoff event or kill time, and the non-terminal records number
// Pending().
func checkRecords(t *testing.T, tag string, st *schedState) {
	t.Helper()
	entries := map[int32]int{}
	for li := range st.levels {
		l := &st.levels[li]
		for _, e := range l.q[l.head:] {
			if !e.started {
				entries[e.rec]++
			}
		}
	}
	open, running := 0, 0
	recs := liveRecords(st)
	if len(recs) != st.jobs.Len() {
		t.Fatalf("%s: the id index holds %d entries for %d ids", tag, st.jobs.Len(), len(recs))
	}
	for id, idx := range recs {
		rec := &st.recs[idx]
		bad := func(what string) {
			t.Helper()
			t.Fatalf("%s: %s record of %s %s", tag, rec.state, id, what)
		}
		if i, ok := st.jobs.Lookup(id, st.recID); !ok || i != idx || rec.idx != idx || st.ids[idx] != id {
			bad("is not indexed under its id and arena slot")
		}
		if (rec.run != noSlot) != (rec.state == JobRunning) {
			bad("disagrees with its running slot")
		}
		backoff, retrying := st.backoff[idx]
		if retrying != (rec.state == JobRetrying) {
			bad("disagrees with its backoff event")
		}
		want := 0
		if rec.state == JobQueued {
			want = 1
		}
		if entries[idx] != want {
			bad(fmt.Sprintf("has %d live queue entries, want %d", entries[idx], want))
		}
		switch {
		case rec.state == JobRunning:
			running++
			if rj := st.slots[rec.run]; !rj.live || rj.slot != rec.run || rj.rec != idx {
				bad("holds a slot that is not live with it")
			}
		case rec.state == JobRetrying && !backoff.Pending():
			bad("has no pending backoff event")
		case rec.state.Terminal() && rec.killed:
			bad("still holds a kill time")
		}
		if !rec.state.Terminal() {
			open++
		}
	}
	live := 0
	for _, rj := range st.slots {
		if rj.live {
			live++
		}
	}
	if running != st.nrunning || live != st.nrunning {
		t.Fatalf("%s: %d running records, %d live slots, running count %d", tag, running, live, st.nrunning)
	}
	if open != st.jobsLeft {
		t.Fatalf("%s: %d non-terminal records, Pending() %d", tag, open, st.jobsLeft)
	}
}

// opMix weights the differential driver's operations; each step draws
// one in proportion to its weight. An all-zero mix only advances time.
type opMix struct {
	submit, cancel, bound, evacuate, reconcile, advance, cut int
}

// defaultMix is the mix of the seeded differential test.
var defaultMix = opMix{submit: 40, cancel: 15, bound: 7, evacuate: 2, reconcile: 2, advance: 34}

// diffCounts reports how often the cached session's memos applied.
type diffCounts struct {
	settled int    // steps that began with a settled-queue memo in force
	adopted uint64 // dispatch-cache entries served by a free-set content match
	full    uint64 // dispatch passes that found nothing free and read no entry
}

// diffDispatch drives one seeded trace — mixed priorities, pinned
// applications, cancels (half of them of the dispatch head, whose
// removal promotes the next entry), bound swings, evacuations,
// reconciles, time advances and bound cuts to the watts the running
// jobs hold, under node crashes, power excursions and stragglers —
// through two sessions of cfg. The cached session dispatches with
// every memo; the cold one is made cold before every event. After
// every step the two must be indistinguishable, the cached session's
// queue counts must match its queue, and every job record of either
// session must match where its job is.
func diffDispatch(t *testing.T, cfg Config, seed uint64, mix opMix, steps int) diffCounts {
	t.Helper()
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(),
		pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{0, 0, 0, 2, 5}
	cfg.Faults = &faults.Scenario{Seed: seed, CrashMTBF: 600, MTTR: 40,
		ExcursionMTBF: 300, StragglerMTBF: 100, StragglerFactor: 8}
	cached, cold := online(t, cfg), online(t, cfg)
	tag := fmt.Sprintf("%s preempt=%v realloc=%v seed=%d", cfg.Policy, cfg.Preempt, cfg.Reallocate, seed)
	total := mix.submit + mix.cancel + mix.bound + mix.evacuate + mix.reconcile + mix.advance + mix.cut
	var n diffCounts
	r := rng.New(seed)
	var known []string
	for ev := 0; ev < steps; ev++ {
		if cached.st.settled.ok && cached.st.settled.res == cached.st.resStamp() {
			n.settled++
		}
		coldUntil(t, cold, cold.Now())
		makeCold(cold.st)
		both := func(op func(o *Online) error) {
			for _, o := range []*Online{cached, cold} {
				if err := op(o); err != nil {
					t.Fatalf("%s ev %d: %v", tag, ev, err)
				}
			}
		}
		op := total
		if total > 0 {
			op = r.Intn(total)
		}
		switch {
		case op < mix.submit:
			id := fmt.Sprintf("j%04d", ev)
			app, pri := apps[r.Intn(len(apps))], pris[r.Intn(len(pris))]
			both(func(o *Online) error { _, err := o.SubmitPri(id, app, pri); return err })
			known = append(known, id)
		case op < mix.submit+mix.cancel:
			id := ""
			if r.Intn(2) == 0 {
				if e := cached.st.topQueued(); e != nil {
					id = cached.st.ids[e.rec]
				}
			} else if len(known) > 0 {
				id = known[r.Intn(len(known))]
			}
			if js, err := cached.Status(id); err == nil && !js.State.Terminal() {
				both(func(o *Online) error { _, err := o.Cancel(id); return err })
			}
		case op < mix.submit+mix.cancel+mix.bound:
			w := 1200 + 2400*r.Float64()
			both(func(o *Online) error { return o.SetBound(w) })
		case op < mix.submit+mix.cancel+mix.bound+mix.evacuate:
			both(func(o *Online) error { o.EvacuateQueued(nil); return nil })
		case op < mix.submit+mix.cancel+mix.bound+mix.evacuate+mix.reconcile:
			both(func(o *Online) error { return o.Reconcile() })
		case op < total-mix.advance:
			// Leave no free watt, or at most a rounding residue: the
			// next passes find nothing free, and a settle memo is
			// stamped after them.
			if w := cached.Bound() - cached.FreeWatts(); w > 1 {
				both(func(o *Online) error { return o.SetBound(w) })
			}
		default:
			until := cached.Now() + 25*r.Float64()
			coldUntil(t, cold, until)
			makeCold(cold.st)
			both(func(o *Online) error { return o.Advance(until) })
		}
		step := fmt.Sprintf("%s ev %d", tag, ev)
		sameSessions(t, step, cached, cold)
		checkQueueCounts(t, step, cached.st)
		checkRecords(t, step, cached.st)
		checkRecords(t, step+" cold", cold.st)
	}
	coldUntil(t, cold, cold.Now())
	makeCold(cold.st)
	for _, o := range []*Online{cached, cold} {
		if err := o.Drain(); err != nil {
			t.Fatalf("%s drain: %v", tag, err)
		}
	}
	sameSessions(t, tag+" drained", cached, cold)
	checkQueueCounts(t, tag+" drained", cached.st)
	checkRecords(t, tag+" drained", cached.st)
	n.adopted, n.full = cached.st.adopted, cached.st.full
	return n
}

// TestCachedDispatchMatchesCold runs the differential driver for each
// policy with preemption on and off: every decision the settled-queue
// memo, the content-keyed dispatch cache and the early end of a pass
// make must equal the one a cold session makes. Both memos must have
// applied, and some passes must have found nothing free, or the
// comparison tested nothing.
func TestCachedDispatchMatchesCold(t *testing.T) {
	var n diffCounts
	for _, pol := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		for _, preempt := range []bool{false, true} {
			for _, seed := range []uint64{1, 2} {
				cfg := Config{Bound: 2400, Policy: pol, Reallocate: seed == 2, Preempt: preempt}
				c := diffDispatch(t, cfg, seed, defaultMix, 600)
				n.settled += c.settled
				n.adopted += c.adopted
				n.full += c.full
			}
		}
	}
	t.Logf("%d steps began with a settled memo; %d cache entries adopted by content; %d passes found nothing free",
		n.settled, n.adopted, n.full)
	if n.settled == 0 {
		t.Error("the settled-queue memo never applied")
	}
	if n.adopted == 0 {
		t.Error("no dispatch-cache entry was ever served by a free-set content match")
	}
	if n.full == 0 {
		t.Error("no dispatch pass ever found nothing free")
	}
}

// FuzzDispatchMatchesCold runs the differential driver on fuzzed
// seeds, policies, preemption and op mixes. Each byte of mix weights
// one operation, in opMix field order; missing bytes weigh zero. The
// last seeds saturate the cluster: submit-heavy mixes, and bound cuts
// that leave no free watt, so most passes find nothing free and the
// next dispatch starts from a memo stamped after them.
func FuzzDispatchMatchesCold(f *testing.F) {
	f.Add(uint64(1), uint8(0), false, []byte{40, 15, 7, 2, 2, 34})
	f.Add(uint64(2), uint8(1), true, []byte{40, 15, 7, 2, 2, 34})
	f.Add(uint64(3), uint8(2), true, []byte{60, 30, 0, 0, 0, 10})
	f.Add(uint64(4), uint8(2), false, []byte{30, 5, 20, 5, 10, 30})
	f.Add(uint64(5), uint8(1), true, []byte{80, 0, 0, 1, 0, 19})
	f.Add(uint64(6), uint8(1), false, []byte{120, 4, 0, 0, 0, 8})
	f.Add(uint64(7), uint8(2), true, []byte{90, 5, 0, 0, 2, 10, 30})
	f.Add(uint64(8), uint8(0), false, []byte{60, 10, 5, 0, 0, 15, 30})
	f.Add(uint64(9), uint8(1), true, []byte{100, 0, 10, 0, 0, 0, 40})
	f.Fuzz(func(t *testing.T, seed uint64, policy uint8, preempt bool, mix []byte) {
		w := make([]int, 7)
		for i := range w {
			if i < len(mix) {
				w[i] = int(mix[i])
			}
		}
		cfg := Config{Bound: 2400, Policy: Policy(policy % 3), Reallocate: seed%2 == 0, Preempt: preempt}
		diffDispatch(t, cfg, seed, opMix{w[0], w[1], w[2], w[3], w[4], w[5], w[6]}, 300)
	})
}

// TestDispatchReusesDecisionPerFreeState runs a stream of one
// application whose jobs each take every node of a 4-node cluster. The
// free set then keeps returning to "all nodes free" with the same or a
// few recurring free-watt values, and the coordinator must run once per
// distinct (free set, free watts) state, not once per start.
func TestDispatchReusesDecisionPerFreeState(t *testing.T) {
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0, 1)
	c, err := core.New(cl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cl, c, Config{Bound: 1600})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	app := workload.CoMD()
	if _, err := c.Advisor(app); err != nil {
		t.Fatal(err)
	}
	schedules := telemetry.Default.Counter("clip_coordinator_schedules_total", "")
	before := schedules.Value()
	// Every Place call sees all four nodes free: a job arriving while
	// another runs finds no free node. The free watts are the ones the
	// start reads: the current value on an idle cluster, the value the
	// finishing job returns otherwise (the same float sum as finish).
	states := map[uint64]bool{math.Float64bits(o.st.freeW): true}
	const jobs = 24
	// A completed job's status carries no placement without fault
	// injection, so each job's node count is read while it runs.
	nodes := make(map[string]int, jobs)
	observe := func() {
		for _, js := range o.Jobs() {
			if js.State == JobRunning {
				nodes[js.ID] = len(js.Nodes)
			}
		}
	}
	for i := 0; i < jobs; i++ {
		if _, err := o.SubmitPri(fmt.Sprintf("j%02d", i), app, 0); err != nil {
			t.Fatal(err)
		}
	}
	for o.st.qlive > 0 {
		running := 0
		for _, idx := range liveRecords(o.st) {
			if rec := &o.st.recs[idx]; rec.state == JobRunning {
				running++
				states[math.Float64bits(o.st.freeW+o.st.slots[rec.run].powerUsed)] = true
			}
		}
		if running != 1 {
			t.Fatalf("%d jobs running; each job should take every node", running)
		}
		observe()
		if err := o.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	observe() // the last job runs until Drain
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, js := range o.Jobs() {
		if js.State != JobCompleted {
			continue
		}
		completed++
		if nodes[js.ID] != len(cl.Nodes) {
			t.Fatalf("job %s ran on %d nodes, want every node (%d)", js.ID, nodes[js.ID], len(cl.Nodes))
		}
	}
	if completed != jobs {
		t.Fatalf("%d of %d jobs finished", completed, jobs)
	}
	got := schedules.Value() - before
	t.Logf("%d starts, %d distinct free states, %d coordinator schedules", jobs, len(states), got)
	if got != uint64(len(states)) {
		t.Fatalf("coordinator ran %d times for %d distinct free states over %d starts", got, len(states), jobs)
	}
	if len(states) >= jobs {
		t.Fatalf("every start saw a new free state (%d); the test exercises no reuse", len(states))
	}
}
