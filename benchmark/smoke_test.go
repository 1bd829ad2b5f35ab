package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchDefs is BENCHMARK.json as the smoke test reads it.
type benchDefs struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchDefs(t *testing.T) benchDefs {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchDefs
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	d := readBenchDefs(t)
	same := func(kind string, file []metricJSON, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range file {
			if p := prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, p)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a reduced
// size and checks that each emits every metric BENCHMARK.json names and
// passes every check.
func TestSmoke(t *testing.T) {
	d := readBenchDefs(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 1, seconds: 0.6, trace: traced,
				traceDir: t.TempDir(), setups: 2, scale: 0.02,
			}
			var log bytes.Buffer
			o, err := run(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, log.String())
			}
			res := o.result()
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, name, m.Value)
					}
				}
			} else if fi, err := os.Stat(spanFile(cfg)); err != nil || fi.Size() == 0 {
				t.Errorf("%s: no spans written: %v", w.name, err)
			}
		}
	}
}
