package main

import (
	"time"

	"repro/internal/rng"
)

// serve-churn inputs. The preload and the cancels keep about 2,000 jobs
// queued, so every write pays for the priority scan and every status
// for a queue position; all routes share the one scheduler lock.
const (
	churnTimescale   = 1.0
	churnPreload     = 2000
	preloadBatch     = 500
	churnBatchJobs   = 16
	churnJobsPerS    = 200.0
	churnHiFrac      = 0.2
	churnCancelAfter = time.Second
	churnStatusPerS  = 200.0
	churnClusterPerS = 20.0
	churnListPerS    = 1.0
)

// preloadOps submits n equal-priority jobs in batches.
func preloadOps(r *rng.Source, ids *jobIDs, n int) []op {
	var ops []op
	for n > 0 {
		k := min(n, preloadBatch)
		ops = append(ops, batchOp(r, ids, 0, k, 0))
		n -= k
	}
	return ops
}

// jobsOf lists the ids a schedule submits.
func jobsOf(ops []op) []string {
	var out []string
	for i := range ops {
		for _, j := range ops[i].jobs {
			out = append(out, j.ID)
		}
	}
	return out
}

// churnOps builds one open-loop schedule of the given length: batch
// submissions until the cancel delay before the end, a cancel for every
// submitted job that delay after its batch was due, and status reads of
// the preloaded jobs, cluster reads and job listings throughout. The
// delay is one second, or a quarter of a shorter schedule.
func churnOps(r *rng.Source, ids *jobIDs, targets []string, seconds float64) []op {
	var ops []op
	after := min(churnCancelAfter, time.Duration(seconds/4*float64(time.Second)))
	for _, d := range dueTimes(r, churnJobsPerS/churnBatchJobs, seconds-after.Seconds()) {
		b := len(ops)
		ops = append(ops, batchOp(r, ids, d, churnBatchJobs, churnHiFrac))
		for _, j := range ops[b].jobs {
			ops = append(ops, op{due: d + after, kind: kCancel, id: j.ID, dep: b})
		}
	}
	for _, d := range dueTimes(r, churnStatusPerS, seconds) {
		ops = append(ops, op{due: d, kind: kStatus, id: targets[r.Intn(len(targets))], dep: -1})
	}
	for _, d := range dueTimes(r, churnClusterPerS, seconds) {
		ops = append(ops, op{due: d, kind: kCluster, dep: -1})
	}
	for _, d := range dueTimes(r, churnListPerS, seconds) {
		ops = append(ops, op{due: d, kind: kList, dep: -1})
	}
	sortOps(ops)
	return ops
}

var serveChurn = serving{
	timescale: churnTimescale,
	setup: func(r *rng.Source, ids *jobIDs, scale float64) []op {
		return preloadOps(r, ids, max(1, int(churnPreload*scale)))
	},
	loop: func(r *rng.Source, ids *jobIDs, setup []op, seconds float64) []op {
		return churnOps(r, ids, jobsOf(setup), seconds)
	},
	// Batches carry the priority scan; a cancel's latency is mostly its
	// wait behind the batch or listing ahead of it on a connection.
	headline: func(p *op) bool { return p.kind == kBatch },
}

func runServeChurn(cfg config, o *outcome) error { return runServing(serveChurn, cfg, o) }
