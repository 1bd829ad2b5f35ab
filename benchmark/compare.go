package main

// clipperf compare reads the standard output of two sets of runs, the
// parent's and the change's, and reports each end-to-end metric of each
// workload with the bound BENCHMARK.json fixes for it. The verdict
// follows the claim rule: a change is better only when it wins at least
// nine of every ten pairs and the medians differ by more than the
// parent's own spread; it is worse when its median is worse by more
// than the bound; a metric whose spread is wider than its bound is
// unresolved unless every run of the change is better than every run
// of the parent.

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runFile is one run's output: its workload and its result line.
type runFile struct {
	workload string
	res      resultLine
}

// readRun parses a run's standard output: the "# clipperf workload="
// header and the JSON object on the last non-empty line.
func readRun(path string) (runFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, err
	}
	defer f.Close()
	var rf runFile
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "# clipperf workload="); ok {
			rf.workload, _, _ = strings.Cut(rest, " ")
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.workload == "" {
		return rf, fmt.Errorf("%s: no clipperf header", path)
	}
	if err := json.Unmarshal([]byte(last), &rf.res); err != nil {
		return rf, fmt.Errorf("%s: last line: %w", path, err)
	}
	if !rf.res.Correct || rf.res.Attempted < 1 {
		return rf, fmt.Errorf("%s: the run failed its checks", path)
	}
	return rf, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs with the exclusive method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict compares head with base for a metric where lower or higher
// is better, pairing runs in the order given.
func verdict(base, head []float64, lowerBetter bool, bound float64) (string, int, int) {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	iqr := bq3 - bq1
	diff := hmed - bmed
	if diff < 0 {
		diff = -diff
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case 10*wins >= 9*pairs && better(hmed, bmed) && diff > iqr:
		return "better", wins, pairs
	case better(bmed, hmed) && diff > bound*bmed:
		return "worse", wins, pairs
	case bmed != 0 && iqr/bmed > bound && !allBetter:
		return "unresolved", wins, pairs
	case allBetter:
		return "better", wins, pairs
	}
	return "unchanged", wins, pairs
}

// compareMain implements `clipperf compare [-bench FILE] BASE... -- HEAD...`
// and returns the exit code: 1 when a metric got worse, 2 on bad input.
func compareMain(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("clipperf compare", flag.ContinueOnError)
	fs.SetOutput(errw)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(errw, "usage: clipperf compare [-bench BENCHMARK.json] BASE_RUN... -- HEAD_RUN...")
		return 2
	}
	rows, worse, err := compare(*benchPath, rest[:sep], rest[sep+1:])
	if err != nil {
		fmt.Fprintln(errw, "clipperf compare:", err)
		return 2
	}
	fmt.Fprint(out, rows)
	if worse {
		return 1
	}
	return 0
}

// num formats a value with four significant digits, without an
// exponent.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// compare builds the report; worse reports whether any metric got worse.
func compare(benchPath string, basePaths, headPaths []string) (report string, worse bool, err error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return "", false, err
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return "", false, fmt.Errorf("%s: %w", benchPath, err)
	}
	load := func(paths []string) (map[string][]runFile, error) {
		out := map[string][]runFile{}
		for _, p := range paths {
			rf, err := readRun(p)
			if err != nil {
				return nil, err
			}
			out[rf.workload] = append(out[rf.workload], rf)
		}
		return out, nil
	}
	base, err := load(basePaths)
	if err != nil {
		return "", false, err
	}
	head, err := load(headPaths)
	if err != nil {
		return "", false, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-13s %-14s %-5s %-30s %-30s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "wins", "verdict")
	names := make([]string, 0, len(base))
	for w := range base {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		if len(head[w]) == 0 {
			return "", false, fmt.Errorf("workload %s has base runs but no head runs", w)
		}
		row := func(name, unit string, b, h []float64, lower bool, bound float64) {
			v, wins, pairs := verdict(b, h, lower, bound)
			worse = worse || v == "worse"
			bq1, bm, bq3 := quartiles(b)
			hq1, hm, hq3 := quartiles(h)
			change := 0.0
			if bm != 0 {
				change = (hm - bm) / bm * 100
			}
			fmt.Fprintf(&sb, "%-13s %-14s %-5s %-30s %-30s %+7.1f%% %5.0f%% %3d/%-2d  %s\n",
				w, name, unit,
				fmt.Sprintf("%s [%s, %s]", num(bm), num(bq1), num(bq3)),
				fmt.Sprintf("%s [%s, %s]", num(hm), num(hq1), num(hq3)),
				change, bound*100, wins, pairs, v)
		}
		for _, m := range bench.EndToEnd {
			var b, h []float64
			for _, rf := range base[w] {
				b = append(b, rf.res.Metrics[m.Name].Value)
			}
			for _, rf := range head[w] {
				h = append(h, rf.res.Metrics[m.Name].Value)
			}
			row(m.Name, m.Unit, b, h, m.Better == "lower", m.Bound)
		}
		// Failures may not increase at all.
		frac := func(runs []runFile) []float64 {
			var out []float64
			for _, rf := range runs {
				out = append(out, float64(rf.res.Failed)/float64(rf.res.Attempted))
			}
			return out
		}
		row("fail_frac", "1", frac(base[w]), frac(head[w]), true, 0)
	}
	for w := range head {
		if len(base[w]) == 0 {
			return "", false, errors.New("workload " + w + " has head runs but no base runs")
		}
	}
	return sb.String(), worse, nil
}
