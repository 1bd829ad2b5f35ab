package jobsched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "re-record internal/jobsched/testdata/churn.golden")

// churnGolden is the file holding one recorded digest per churn case.
var churnGolden = filepath.Join("testdata", "churn.golden")

// churnDigest drives one seeded Online session of cfg — mixed-priority
// submits, cancels, bound swings and time advances under node crashes,
// power excursions and stragglers — drains it, and hashes every job's
// terminal state, timestamps, placement, budget, retries and
// preemptions. Any change to a model figure or a placement decision
// moves the digest.
func churnDigest(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.Reallocate = true
	cfg.Faults = &faults.Scenario{Seed: 5, CrashMTBF: 400, MTTR: 30,
		ExcursionMTBF: 250, StragglerMTBF: 150, StragglerFactor: 4}
	o := online(t, cfg)
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.BTMZ(),
		pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{0, 0, 0, 2, 5}
	r := rng.New(0xC4)
	var ids []string
	for ev := 0; ev < 240; ev++ {
		var err error
		switch op := r.Intn(100); {
		case op < 45:
			id := fmt.Sprintf("j%03d", ev)
			_, err = o.SubmitPri(id, apps[r.Intn(len(apps))], pris[r.Intn(len(pris))])
			ids = append(ids, id)
		case op < 57:
			if len(ids) > 0 {
				id := ids[r.Intn(len(ids))]
				if js, serr := o.Status(id); serr == nil && !js.State.Terminal() {
					_, err = o.Cancel(id)
				}
			}
		case op < 65:
			err = o.SetBound(1200 + 2400*r.Float64())
		default:
			err = o.Advance(o.Now() + 30*r.Float64())
		}
		if err != nil {
			t.Fatalf("ev %d: %v", ev, err)
		}
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	jobs := o.Jobs()
	for _, js := range jobs {
		fmt.Fprintf(h, "%s %v %x %x %x %v %d %x %d %d %d %x %s\n", js.ID, js.State,
			math.Float64bits(js.Arrival), math.Float64bits(js.Start), math.Float64bits(js.Finish),
			js.Nodes, js.Cores, math.Float64bits(js.PerNodeW), js.Retries, js.Priority,
			js.Preemptions, math.Float64bits(js.ReclaimedW), js.Reason)
	}
	return fmt.Sprintf("%#016x jobs=%d now=%x", h.Sum64(), len(jobs), math.Float64bits(o.Now()))
}

// TestGoldenChurnOutcomes pins the per-job outcome of the churn session
// under every policy, with preemption on and off, to the digests in
// testdata/churn.golden. A change that must keep every scheduling and
// model decision passes it untouched; -update re-records the file.
func TestGoldenChurnOutcomes(t *testing.T) {
	var got strings.Builder
	for _, pol := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		for _, preempt := range []bool{false, true} {
			d := churnDigest(t, Config{Bound: 2400, Policy: pol, Preempt: preempt})
			fmt.Fprintf(&got, "%s preempt=%v %s\n", pol, preempt, d)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(churnGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(churnGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got.String() != string(want) {
		t.Errorf("churn outcomes moved:\n got:\n%s want:\n%s", got.String(), want)
	}
}

// TestGoldenFaultLog pins a batch Run's fault log and makespan with the
// crash, excursion and straggler streams all active, under every
// policy. The clipsim fault goldens inject no stragglers; this one
// covers the straggler stream's scheduling and its interleaving with
// the other two.
func TestGoldenFaultLog(t *testing.T) {
	want := map[Policy]string{
		FCFS:               "0xd99b3086e8c2c170 events=536 makespan=409f6969da797b3b",
		Backfill:           "0xd99b3086e8c2c170 events=536 makespan=409f6969da797b3b",
		AggressiveBackfill: "0x828b7fe42a507ced events=733 makespan=40a7b9025f183155",
	}
	sc := &faults.Scenario{Seed: 21, CrashMTBF: 500, MTTR: 30,
		ExcursionMTBF: 300, StragglerMTBF: 150, StragglerFactor: 3}
	var jobs []Job
	for round := 0; round < 3; round++ {
		for i, j := range chaosJobs() {
			j.ID = fmt.Sprintf("r%d-%s", round, j.ID)
			j.Arrival += float64(round*40 + i)
			jobs = append(jobs, j)
		}
	}
	for _, pol := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		s := sched(t, Config{Bound: 1000, Policy: pol, Reallocate: true, Faults: sc})
		st, err := s.Run(jobs)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		f := st.Faults
		if f.Crashes == 0 || f.Excursions == 0 || f.Stragglers == 0 {
			t.Fatalf("%s: streams not all active: %+v", pol, f)
		}
		h := fnv.New64a()
		h.Write([]byte(renderFaultLog(st.FaultLog)))
		got := fmt.Sprintf("%#016x events=%d makespan=%x", h.Sum64(), len(st.FaultLog),
			math.Float64bits(st.Makespan))
		if got != want[pol] {
			t.Errorf("%s: fault log digest %s, want %s", pol, got, want[pol])
		}
	}
}
