package trace

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Add("alpha", 1.5)
	tb.Add("b", 42)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.500") {
		t.Errorf("row formatting wrong: %q", lines[2])
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Add("longvalue", "x")
	var sb strings.Builder
	tb.Render(&sb)
	lines := strings.Split(sb.String(), "\n")
	// Column b must start at the same offset in header and row.
	hIdx := strings.Index(lines[0], "b")
	rIdx := strings.Index(lines[2], "x")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d", hIdx, rIdx)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1.23456, "1.235"},
		{12345.6, "1.23e+04"},
		{0.00123, "0.00123"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBars(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "title", []string{"x", "yy"}, []float64{1, 2}, 10)
	out := sb.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "##########") {
		t.Errorf("max bar not full width: %q", out)
	}
	if !strings.Contains(out, "#####") {
		t.Errorf("half bar missing: %q", out)
	}
}

func TestBarsAllZero(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "t", []string{"a"}, []float64{0}, 10)
	if !strings.Contains(sb.String(), "a") {
		t.Error("zero-valued bars should still print labels")
	}
}

func TestBarsNegativeClamped(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "t", []string{"a", "b"}, []float64{-1, 2}, 10)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, "a ") && strings.Contains(line, "#") {
			t.Errorf("negative value drew a bar: %q", line)
		}
	}
}

func TestSeries(t *testing.T) {
	var sb strings.Builder
	Series(&sb, "chart", "x", []float64{1, 2}, []string{"s1", "s2"},
		[][]float64{{10, 20}, {30, 40}})
	out := sb.String()
	for _, want := range []string{"chart", "s1", "s2", "10", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesRagged(t *testing.T) {
	var sb strings.Builder
	// Second series shorter than x: must not panic.
	Series(&sb, "c", "x", []float64{1, 2, 3}, []string{"a", "b"},
		[][]float64{{1, 2, 3}, {9}})
	if !strings.Contains(sb.String(), "9") {
		t.Error("short series value missing")
	}
}

func TestDefaultWidth(t *testing.T) {
	var sb strings.Builder
	Bars(&sb, "t", []string{"a"}, []float64{5}, 0)
	if !strings.Contains(sb.String(), strings.Repeat("#", 48)) {
		t.Error("default width of 48 not applied")
	}
}
