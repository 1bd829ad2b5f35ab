package main

import (
	"sort"
	"testing"
	"time"
)

// TestPaceSendsLateNotDropped stalls one send for three intervals and
// checks that every later send still happens, in order, and that the
// stall shows up as reported lateness.
func TestPaceSendsLateNotDropped(t *testing.T) {
	const (
		n        = 8
		interval = 20 * time.Millisecond
	)
	var calls []int
	late := pace(time.Now(), interval, n, func(i int) {
		calls = append(calls, i)
		if i == 0 {
			time.Sleep(3 * interval)
		}
	})
	if len(calls) != n {
		t.Fatalf("sent %d of %d requests: %v", len(calls), n, calls)
	}
	for i, c := range calls {
		if c != i {
			t.Fatalf("send %d carried index %d: %v", i, c, calls)
		}
	}
	if len(late) != n {
		t.Fatalf("lateness has %d entries, want %d", len(late), n)
	}
	// Send 1 was due one interval in but could start only after send 0's
	// three-interval stall, so it ran at least two intervals late.
	if want := 2 * interval.Seconds(); late[1] < want {
		t.Errorf("send 1 lateness %.4fs, want at least %.4fs", late[1], want)
	}
	sort.Float64s(late)
	if p99 := percentileMs(late, 0.99); p99 < float64(interval.Milliseconds()) {
		t.Errorf("lateness p99 %.2f ms does not show the %v stall", p99, 3*interval)
	}
}
