// Command clipload is a deterministic load generator for clipd: it
// drives the daemon's HTTP API at a target request rate for a fixed
// duration and reports latency and throughput percentiles.
//
// Usage:
//
//	clipload -addr 127.0.0.1:8080 -rps 500 -duration 10s
//	clipload -addr 127.0.0.1:8080 -rps 200 -cancel 0.3 -seed 7
//	clipload -addr 127.0.0.1:8080 -rps 50000 -batch 256 -duration 10s
//
// The generator is open-loop: request i is due at start + i×interval
// regardless of response latency, so daemon backpressure shows up as
// 429s in the report instead of silently slowing the offered load. A
// request that comes due while the generator is behind is sent late,
// never dropped, so a run sends exactly duration × rps jobs (rounded down
// to whole batches) and reports how late the sends ran.
//
// App, priority and cancel decisions come from the given seed, so two
// runs against equivalent daemons offer the same app, priority and
// cancel streams. Job ids do not repeat across runs: each carries a
// token taken from the run's start time (load-<token>-<n>), so a second
// run against the same daemon gets no 409 conflicts.
//
// The last output line is machine-readable (key=value pairs), consumed
// by scripts/bench.sh:
//
//	clipload target_rps=500 sent=5000 ok=4807 rejected=193 errors=0 ... late_p99_ms=0.081
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "clipd address (host:port)")
	rps := flag.Float64("rps", 500, "target submissions per second")
	duration := flag.Duration("duration", 10*time.Second, "how long to offer load")
	seed := flag.Int64("seed", 1, "deterministic stream seed (apps, cancel picks)")
	apps := flag.String("apps", "comd,amg,minimd", "comma-separated app names to submit")
	cancelFrac := flag.Float64("cancel", 0, "fraction of accepted jobs to cancel right after submit")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
	batch := flag.Int("batch", 1, "jobs per request; >1 uses POST /v1/jobs:batch (offered job rate stays -rps)")
	hipriFrac := flag.Float64("hipri-frac", 0, "fraction of jobs submitted at high priority")
	hipri := flag.Int("hipri", 10, "priority value for high-priority jobs")
	flag.Parse()

	if *rps <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "clipload: -rps and -duration must be positive")
		os.Exit(2)
	}
	if *batch < 1 {
		fmt.Fprintln(os.Stderr, "clipload: -batch must be >= 1")
		os.Exit(2)
	}
	names := strings.Split(*apps, ",")
	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}

	rng := rand.New(rand.NewSource(*seed))
	// Priority picks come from their own stream so -hipri-frac=0 offers
	// a request stream byte-identical to builds without the flag.
	prng := rand.New(rand.NewSource(*seed + 1))
	pickPri := func() int {
		if *hipriFrac > 0 && prng.Float64() < *hipriFrac {
			return *hipri
		}
		return 0
	}
	// With batching, each request carries -batch jobs: the request rate
	// drops so the offered job rate stays at -rps.
	interval := time.Duration(float64(*batch) * float64(time.Second) / *rps)
	requests := int(*duration / interval)

	var (
		mu        sync.Mutex
		latencies []float64 // accepted submissions only, seconds
		ok, rej   int
		errs      int
		cancels   int
	)
	hiSent := 0
	var wg sync.WaitGroup
	// In-flight bound: past it requests are counted as errors rather
	// than piling up goroutines against a wedged daemon.
	inflight := make(chan struct{}, 1024)
	start := time.Now()
	idPrefix := "load-" + strconv.FormatInt(start.UnixNano(), 36) + "-"
	sent := 0

	late := pace(start, interval, requests, func(int) {
		if *batch > 1 {
			entries := make([]submitEntry, *batch)
			for i := range entries {
				sent++
				entries[i] = submitEntry{
					ID:       idPrefix + strconv.Itoa(sent),
					App:      names[rng.Intn(len(names))],
					Priority: pickPri(),
					cancel:   rng.Float64() < *cancelFrac,
				}
				if entries[i].Priority != 0 {
					hiSent++
				}
			}
			select {
			case inflight <- struct{}{}:
			default:
				mu.Lock()
				errs += len(entries)
				mu.Unlock()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-inflight }()
				submitBatch(client, base, entries, &mu, &latencies, &ok, &rej, &errs, &cancels)
			}()
			return
		}
		sent++
		id := idPrefix + strconv.Itoa(sent)
		app := names[rng.Intn(len(names))]
		pri := pickPri()
		if pri != 0 {
			hiSent++
		}
		doCancel := rng.Float64() < *cancelFrac
		select {
		case inflight <- struct{}{}:
		default:
			mu.Lock()
			errs++
			mu.Unlock()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			req := map[string]any{"id": id, "app": app}
			if pri != 0 {
				req["priority"] = pri
			}
			body, _ := json.Marshal(req)
			t0 := time.Now()
			resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			lat := time.Since(t0).Seconds()
			if err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
				return
			}
			resp.Body.Close()
			mu.Lock()
			switch {
			case resp.StatusCode == http.StatusCreated:
				ok++
				latencies = append(latencies, lat)
			case resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable:
				rej++
			default:
				errs++
			}
			mu.Unlock()
			if doCancel && resp.StatusCode == http.StatusCreated {
				req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
				if dr, derr := client.Do(req); derr == nil {
					dr.Body.Close()
					if dr.StatusCode == http.StatusOK {
						mu.Lock()
						cancels++
						mu.Unlock()
					}
				}
			}
		}()
	})
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sort.Float64s(latencies)
	sort.Float64s(late)
	pct := func(q float64) float64 { return percentileMs(latencies, q) }
	achieved := float64(ok) / elapsed

	fmt.Printf("clipload: %s for %.1fs at target %.0f rps, batch %d (seed %d)\n",
		base, elapsed, *rps, *batch, *seed)
	fmt.Printf("  sent      %d\n", sent)
	fmt.Printf("  accepted  %d (%.1f/s achieved)\n", ok, achieved)
	fmt.Printf("  rejected  %d (429/503 backpressure)\n", rej)
	fmt.Printf("  errors    %d\n", errs)
	fmt.Printf("  cancelled %d\n", cancels)
	if *hipriFrac > 0 {
		fmt.Printf("  high-pri  %d (priority %d)\n", hiSent, *hipri)
	}
	fmt.Printf("  submit latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	fmt.Printf("  send lateness ms:  p50 %.2f  p99 %.2f\n", percentileMs(late, 0.50), percentileMs(late, 0.99))
	fmt.Printf("clipload target_rps=%.0f batch=%d sent=%d ok=%d rejected=%d errors=%d cancelled=%d "+
		"achieved_rps=%.1f p50_ms=%.3f p90_ms=%.3f p99_ms=%.3f max_ms=%.3f late_p99_ms=%.3f\n",
		*rps, *batch, sent, ok, rej, errs, cancels, achieved,
		pct(0.50), pct(0.90), pct(0.99), pct(1.0), percentileMs(late, 0.99))

	if ok == 0 {
		fmt.Fprintln(os.Stderr, "clipload: no submission was accepted")
		os.Exit(1)
	}
}

// pace calls send(i) for i = 0 .. n-1, the i-th call due at start +
// i×interval, and returns how late each call began, in seconds. A call
// that comes due while an earlier one is still running starts late but
// is never skipped, so a stalled generator shows up as lateness rather
// than as a silently smaller offered load.
func pace(start time.Time, interval time.Duration, n int, send func(i int)) []float64 {
	late := make([]float64, n)
	for i := range late {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late[i] = time.Since(due).Seconds()
		send(i)
	}
	return late
}

// percentileMs returns the q-quantile of sorted (seconds) in
// milliseconds, or 0 when sorted is empty.
func percentileMs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))] * 1000
}

// submitEntry is one job of a batch request plus its cancel decision
// (drawn up front so the stream stays deterministic for a given seed).
type submitEntry struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Priority int    `json:"priority,omitempty"`
	cancel   bool
}

// batchEntryResult mirrors the server's per-entry batch response.
type batchEntryResult struct {
	Job *struct {
		ID string `json:"id"`
	} `json:"job"`
	Code int `json:"code"`
}

// submitBatch posts one POST /v1/jobs:batch request and folds the
// per-entry outcomes into the shared counters. The request latency is
// recorded once per accepted job, so percentiles stay per-job.
func submitBatch(client *http.Client, base string, entries []submitEntry,
	mu *sync.Mutex, latencies *[]float64, ok, rej, errs, cancels *int) {
	body, _ := json.Marshal(map[string][]submitEntry{"jobs": entries})
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	lat := time.Since(t0).Seconds()
	if err != nil {
		mu.Lock()
		*errs += len(entries)
		mu.Unlock()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		mu.Lock()
		if resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable {
			*rej += len(entries)
		} else {
			*errs += len(entries)
		}
		mu.Unlock()
		return
	}
	var out struct {
		Entries []batchEntryResult `json:"entries"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil || len(out.Entries) != len(entries) {
		mu.Lock()
		*errs += len(entries)
		mu.Unlock()
		return
	}
	var toCancel []string
	mu.Lock()
	for i, e := range out.Entries {
		switch {
		case e.Code == http.StatusCreated:
			*ok++
			*latencies = append(*latencies, lat)
			if entries[i].cancel {
				toCancel = append(toCancel, entries[i].ID)
			}
		case e.Code == http.StatusTooManyRequests ||
			e.Code == http.StatusServiceUnavailable:
			*rej++
		default:
			*errs++
		}
	}
	mu.Unlock()
	for _, id := range toCancel {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if dr, derr := client.Do(req); derr == nil {
			dr.Body.Close()
			if dr.StatusCode == http.StatusOK {
				mu.Lock()
				*cancels++
				mu.Unlock()
			}
		}
	}
}
