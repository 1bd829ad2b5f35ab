package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// LE is the inclusive upper bound of the bucket; math.Inf(1) for the
	// final bucket (rendered as "+Inf" in JSON and Prometheus text).
	LE float64 `json:"le"`
	// Count is the cumulative number of observations <= LE.
	Count uint64 `json:"count"`
}

// MarshalJSON renders the +Inf bound as the string "+Inf" (JSON has no
// infinity literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "\"+Inf\""
	if !math.IsInf(b.LE, 1) {
		le = strconv.FormatFloat(b.LE, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%s,"count":%d}`, le, b.Count)), nil
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" string
// MarshalJSON emits.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if string(raw.LE) == `"+Inf"` {
		b.LE = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.LE, &b.LE)
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a consistent-enough point-in-time copy of a registry:
// each cell of a metric is read atomically and a family's cells are
// summed, the set of metrics is read under the registry lock. It is the payload of the JSON exposition and the
// end-of-run telemetry report.
type Snapshot struct {
	Counters      map[string]uint64            `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Events        []Event                      `json:"events"`
	EventsTotal   uint64                       `json:"events_total"`
	EventsDropped uint64                       `json:"events_dropped"`
}

// snapshot reads the family totals of h: count, sum and cumulative
// buckets, each summed over the cells.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(),
		Buckets: make([]BucketCount, len(h.bounds)+1)}
	var cum uint64
	for i := range hs.Buckets {
		cum += h.total(histBuckets + i)
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		hs.Buckets[i] = BucketCount{LE: le, Count: cum}
	}
	return hs
}

// Snapshot captures the current state of every metric and the retained
// events.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	for name, cs := range r.counters {
		s.Counters[name] = cs[0].Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, hs := range r.hists {
		s.Histograms[name] = hs[0].snapshot()
	}
	r.mu.RUnlock()
	s.Events = r.events.Snapshot()
	s.EventsTotal = r.events.Total()
	s.EventsDropped = r.events.Dropped()
	return s
}

// WriteJSON writes the snapshot as indented JSON (the format of the
// end-of-run telemetry report and of the HTTP /telemetry.json page).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteReportFile writes the JSON snapshot to path (the end-of-run
// telemetry report of cmd/clipbench and cmd/clipsim).
func (r *Registry) WriteReportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE header per family, histograms expanded into cumulative
// _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	type series struct {
		name string
		kind string // counter, gauge, histogram
	}
	families := make(map[string][]series)
	for name := range s.Counters {
		f := familyOf(name)
		families[f] = append(families[f], series{name, "counter"})
	}
	for name := range s.Gauges {
		f := familyOf(name)
		families[f] = append(families[f], series{name, "gauge"})
	}
	for name := range s.Histograms {
		f := familyOf(name)
		families[f] = append(families[f], series{name, "histogram"})
	}
	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Strings(names)

	for _, fam := range names {
		ss := families[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		if h := help[fam]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, h)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, ss[0].kind)
		for _, sr := range ss {
			switch sr.kind {
			case "counter":
				fmt.Fprintf(bw, "%s %d\n", sr.name, s.Counters[sr.name])
			case "gauge":
				fmt.Fprintf(bw, "%s %s\n", sr.name, formatFloat(s.Gauges[sr.name]))
			case "histogram":
				hs := s.Histograms[sr.name]
				for _, b := range hs.Buckets {
					le := "+Inf"
					if !math.IsInf(b.LE, 1) {
						le = formatFloat(b.LE)
					}
					fmt.Fprintf(bw, "%s %d\n", withLabel(sr.name, "_bucket", "le", le), b.Count)
				}
				fmt.Fprintf(bw, "%s %s\n", suffixed(sr.name, "_sum"), formatFloat(hs.Sum))
				fmt.Fprintf(bw, "%s %d\n", suffixed(sr.name, "_count"), hs.Count)
			}
		}
	}
	return bw.Flush()
}

// formatFloat renders a float64 the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// suffixed appends suffix to the family part of a possibly labelled
// series name: suffixed(`m{a="1"}`, "_sum") = `m_sum{a="1"}`.
func suffixed(name, suffix string) string {
	fam := familyOf(name)
	return fam + suffix + name[len(fam):]
}

// withLabel appends suffix to the family and merges one extra label
// into the series' label set.
func withLabel(name, suffix, key, val string) string {
	fam := familyOf(name)
	labels := name[len(fam):]
	extra := key + `="` + escapeLabel(val) + `"`
	if labels == "" {
		return fam + suffix + "{" + extra + "}"
	}
	// labels == "{...}": splice the extra pair before the closing brace.
	return fam + suffix + labels[:len(labels)-1] + "," + extra + "}"
}
