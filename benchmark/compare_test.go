package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 7.2, 2.2, 9.9, 4.4, 1.0}, 1.0, 3.1, 7.2},
		{[]float64{5, 1}, 0, 3, 6},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	cases := []struct {
		name  string
		head  []float64
		lower bool
		want  string
	}{
		{"faster", shift(0.8), true, "better"},
		{"slower", shift(1.2), true, "worse"},
		{"slightly slower", shift(1.05), true, "unchanged"},
		{"higher is better", shift(1.2), false, "better"},
		// Wins only 8 of 10 pairs, and not every run is better.
		{"mixed", []float64{90, 90, 90, 90, 90, 90, 90, 90, 103, 104}, true, "unchanged"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(base, c.head, c.lower, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	wide := []float64{50, 150, 80, 120, 60, 140, 100, 90, 110, 100}
	if got, _, _ := verdict(wide, wide, true, 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}

func TestCompareReport(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, bench, `{"end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`)
	var base, head []string
	for i := 0; i < 10; i++ {
		b := filepath.Join(dir, fmt.Sprintf("base%d.out", i))
		h := filepath.Join(dir, fmt.Sprintf("head%d.out", i))
		writeFile(t, b, fmt.Sprintf("# clipperf workload=w seed=%d\n{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":%d,\"unit\":\"ms\"}}}\n", i, 100+i%3))
		writeFile(t, h, fmt.Sprintf("# clipperf workload=w seed=%d\n{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"p50_ms\":{\"value\":%d,\"unit\":\"ms\"}}}\n", i, 130+i%3))
		base, head = append(base, b), append(head, h)
	}
	var out, errw bytes.Buffer
	args := append(append(append([]string{"-bench", bench}, base...), "--"), head...)
	if code := compareMain(args, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression; stderr %s", code, errw.String())
	}
	for _, want := range []string{"p50_ms", "fail_frac", "worse", "unchanged"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if code := compareMain(append([]string{"-bench", bench}, base...), &out, &errw); code != 2 {
		t.Errorf("no -- separator: exit %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}
