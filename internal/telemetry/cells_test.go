package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestCellsSumToFamily: eight goroutines, one per cell, update the same
// counter and histogram families; every read surface (the handles of
// every cell, Snapshot, the JSON report and the Prometheus text) must
// show the totals of the same writes made serially through one handle,
// and the Prometheus text must equal that single-cell registry's. Run
// under -race it also pins the cells as independently writable, and it
// checks that no two cells of a family share a cache line.
func TestCellsSumToFamily(t *testing.T) {
	const perCell = 3000
	bounds := []float64{0.25, 0.5, 1}
	// write makes cell k's share of the writes through one view. Every
	// observed value is a multiple of 0.25, so every sum is exact in
	// any order and the striped and serial sums compare bit for bit.
	write := func(v Cell, k int) {
		c := v.Counter("c_total", "striped counter")
		lc := v.Counter(Label("l_total", "k", "x"), "labelled counter")
		h := v.Histogram("h_seconds", "striped histogram", bounds)
		for i := 0; i < perCell; i++ {
			c.Inc()
			lc.Add(uint64(k + 1))
			h.Observe(float64((i+k)%6) * 0.25)
		}
	}

	striped := NewRegistry()
	var wg sync.WaitGroup
	for k := 0; k < Cells; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			write(striped.Cell(k), k)
			_ = striped.Snapshot() // a concurrent reader
		}(k)
	}
	wg.Wait()

	single := NewRegistry()
	for k := 0; k < Cells; k++ {
		write(single.Cell(0), k)
	}

	want := single.Snapshot()
	if got := want.Counters["c_total"]; got != Cells*perCell {
		t.Fatalf("serial counter = %d, want %d", got, Cells*perCell)
	}
	for k := 0; k < Cells; k++ {
		v := striped.Cell(k)
		if got := v.Counter("c_total", "").Value(); got != want.Counters["c_total"] {
			t.Errorf("cell %d counter reads %d, want %d", k, got, want.Counters["c_total"])
		}
		h := v.Histogram("h_seconds", "", nil)
		wh := want.Histograms["h_seconds"]
		if h.Count() != wh.Count || h.Sum() != wh.Sum {
			t.Errorf("cell %d histogram reads count %d sum %g, want %d %g", k, h.Count(), h.Sum(), wh.Count, wh.Sum)
		}
	}
	got := striped.Snapshot()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("snapshot counters %v, want %v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("snapshot histograms %v, want %v", got.Histograms, want.Histograms)
	}

	var gotJSON, wantJSON bytes.Buffer
	if err := striped.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := single.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	var gj, wj Snapshot
	if err := json.Unmarshal(gotJSON.Bytes(), &gj); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantJSON.Bytes(), &wj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gj.Counters, wj.Counters) || !reflect.DeepEqual(gj.Histograms, wj.Histograms) {
		t.Errorf("JSON report differs from the single-cell registry's:\n%s\nwant\n%s", gotJSON.String(), wantJSON.String())
	}

	var gotProm, wantProm bytes.Buffer
	if err := striped.WritePrometheus(&gotProm); err != nil {
		t.Fatal(err)
	}
	if err := single.WritePrometheus(&wantProm); err != nil {
		t.Fatal(err)
	}
	if gotProm.String() != wantProm.String() {
		t.Errorf("Prometheus text differs from the single-cell registry's:\n%s\nwant\n%s", gotProm.String(), wantProm.String())
	}

	// Gauges and the event log are single: every view shares them.
	if striped.Cell(3).Gauge("g", "") != striped.Gauge("g", "") {
		t.Error("a cell view returned its own gauge")
	}
	if striped.Cell(5).Events() != striped.Events() {
		t.Error("a cell view returned its own event log")
	}

	// The cells of one family never share a cache line: the last word
	// of one cell and the first word of the next are at least a line
	// apart, whatever the family's alignment.
	for k := 0; k+1 < Cells; k++ {
		a := striped.Cell(k).Counter("c_total", "")
		b := striped.Cell(k+1).Counter("c_total", "")
		if d := uintptr(unsafe.Pointer(b.v)) - uintptr(unsafe.Pointer(a.v)); d < cacheLine {
			t.Errorf("counter cells %d and %d are %d bytes apart, want >= %d", k, k+1, d, cacheLine)
		}
		ha := striped.Cell(k).Histogram("h_seconds", "", nil)
		hb := striped.Cell(k+1).Histogram("h_seconds", "", nil)
		last, first := &ha.cell[len(ha.cell)-1], &hb.cell[0]
		if d := uintptr(unsafe.Pointer(first)) - uintptr(unsafe.Pointer(last)); d < cacheLine {
			t.Errorf("histogram cells %d and %d are %d bytes apart, want >= %d", k, k+1, d, cacheLine)
		}
	}
}
