package main

import (
	"repro/internal/rng"
	"repro/internal/server"
)

// serve-submit inputs. The reference step offers a fixed open-loop rate
// well below capacity and measures latency; the saturation step sends a
// fixed number of requests back to back on every connection and
// measures the rate the server sustains. A fixed count, rather than a
// fixed time, keeps the jobs the server holds, and so its memory, the
// same however fast it runs.
const (
	submitTimescale = 1e6 // virtual seconds per wall second: the cluster never queues
	warmRPS         = 500.0
	warmSeconds     = 1.0
	refRPS          = 2000.0
	satShare        = 0.5    // of the measured seconds
	satNominalRPS   = 8000.0 // sizes the saturation step
)

var serveSubmit = serving{
	timescale: submitTimescale,
	// One job of each application, so that no timed request pays for
	// profiling it.
	setup: func(r *rng.Source, ids *jobIDs, scale float64) []op {
		ops := make([]op, len(serveApps))
		for i, app := range serveApps {
			ops[i] = op{kind: kSubmit, dep: -1, jobs: []server.SubmitRequest{{ID: ids.next(), App: app}}}
			ops[i].encode()
		}
		return ops
	},
	warm: func(r *rng.Source, ids *jobIDs, scale float64) []op {
		return submitOps(r, ids, warmRPS, warmSeconds*scale)
	},
	loop: func(r *rng.Source, ids *jobIDs, _ []op, seconds float64) []op {
		return submitOps(r, ids, refRPS, seconds)
	},
	headline: func(*op) bool { return true },
	sat: func(r *rng.Source, ids *jobIDs, seconds float64) []op {
		ops := submitOps(r, ids, satNominalRPS, seconds)
		for i := range ops {
			ops[i].due = 0
		}
		return ops
	},
	satShare: satShare,
}

func runServeSubmit(cfg config, o *outcome) error { return runServing(serveSubmit, cfg, o) }
