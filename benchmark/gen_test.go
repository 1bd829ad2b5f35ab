package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

func churnSchedule(seed uint64) []op {
	ids := &jobIDs{prefix: "t"}
	r := rng.New(seed)
	pre := preloadOps(r, ids, 40)
	return churnOps(r, ids, jobsOf(pre), 10)
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	a, b := churnSchedule(7), churnSchedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, churnSchedule(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

func TestOpCountsAreRateTimesDuration(t *testing.T) {
	ids := &jobIDs{prefix: "t"}
	if got := len(submitOps(rng.New(1), ids, 2000, 2.5)); got != 5000 {
		t.Errorf("2000/s for 2.5 s: %d submits, want 5000", got)
	}
	ops := churnSchedule(3)
	count := map[opKind]int{}
	for i := range ops {
		count[ops[i].kind]++
	}
	// Batches stop one cancel delay (1 s) before the end.
	batches := int(math.Round(churnJobsPerS / churnBatchJobs * 9))
	want := map[opKind]int{
		kBatch:   batches,
		kCancel:  batches * churnBatchJobs,
		kStatus:  int(churnStatusPerS * 10),
		kCluster: int(churnClusterPerS * 10),
		kList:    int(churnListPerS * 10),
	}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("op counts %v, want %v", count, want)
	}
}

func TestScheduleIsOrderedAndConsistent(t *testing.T) {
	ops := churnSchedule(5)
	seen := map[string]bool{}
	for i := range ops {
		o := &ops[i]
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due %v before op %d", i, o.due, i-1)
		}
		for _, j := range o.jobs {
			if seen[j.ID] {
				t.Fatalf("job id %s used twice", j.ID)
			}
			seen[j.ID] = true
		}
		if o.kind != kCancel {
			continue
		}
		if o.dep < 0 || o.dep >= i || ops[o.dep].kind != kBatch {
			t.Fatalf("cancel %d depends on op %d", i, o.dep)
		}
		found := false
		for _, j := range ops[o.dep].jobs {
			found = found || j.ID == o.id
		}
		if !found {
			t.Fatalf("cancel of %s depends on a batch without it", o.id)
		}
	}
}

func TestSummaryTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n                int
		p50, tail, tailQ float64
	}{
		{10000, 5000, 9990, 0.999},
		{1000, 500, 990, 0.99},
		{999, 500, 900, 0.9}, // 9.99 samples beyond p99: too few
		{100, 50, 90, 0.9},
		{99, 50, 0, 0}, // 9.9 beyond p90: no tail
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.Tail != c.tail || s.TailQ != c.tailQ {
			t.Errorf("n=%d: got %+v, want p50 %v, p%v %v", c.n, s, c.p50, c.tailQ*100, c.tail)
		}
	}
	if got := p99(seq(1000)); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}
