// Package faults holds the fault-scenario grammars and the seeded
// streams fault injection draws from. Scenario is the node scenario —
// crashes, power-cap excursions, stragglers, the retry schedule of
// killed jobs and the per-node circuit breaker — that jobsched's node
// fault layer runs, and its comma-separated key=value grammar
// (ScenarioGrammar, on the generic Grammar of spec.go) is the one
// `clipsim -faults` and `clipd -faults` parse. fed reuses Grammar for
// its shard scenario.
//
// Streams cuts one SplitMix64 stream per entity from (scenario seed,
// stream salt, entity id), so a scenario replays byte-identically
// however its events interleave on the discrete-event timeline: node
// 3's second crash time does not depend on whether node 5 ever crashed.
package faults

import (
	"math"

	"repro/internal/rng"
)

// Scenario describes one fault-injection campaign. A zero MTBF disables
// the corresponding fault class; all times are simulated seconds.
type Scenario struct {
	// Seed roots every stream of the scenario.
	Seed uint64
	// CrashMTBF is the per-node mean time between crashes (exponential
	// inter-arrivals); 0 disables crashes.
	CrashMTBF float64
	// MTTR is the mean repair time of a crashed node.
	MTTR float64
	// ExcursionMTBF is the per-node mean time between power-cap
	// excursions; 0 disables excursions.
	ExcursionMTBF float64
	// ExcursionFrac is the mean fraction of the node's effective budget
	// an excursion removes (drawn in [0.75, 1.25]× of this mean,
	// clamped to 0.95).
	ExcursionFrac float64
	// ExcursionDur is the mean excursion duration.
	ExcursionDur float64
	// StragglerMTBF is the per-node mean time between straggler
	// episodes; 0 disables stragglers.
	StragglerMTBF float64
	// StragglerFactor is the mean slowdown multiplier (>1) applied to
	// iteration time while the episode lasts.
	StragglerFactor float64
	// StragglerDur is the mean straggler duration.
	StragglerDur float64
	// MaxRetries bounds how often a killed job is re-enqueued before it
	// is reported failed; 0 means the default, negative means no retries
	// at all.
	MaxRetries int
	// BackoffBase is the first retry delay; doubles per attempt.
	BackoffBase float64
	// BackoffCap caps the exponential retry delay.
	BackoffCap float64
	// JitterFrac adds a deterministic per-(job, attempt) jitter of up to
	// this fraction on top of each backoff delay; 0 means the default,
	// negative means no jitter.
	JitterFrac float64
	// CrashLimit is the per-node circuit breaker: a node whose crash
	// count exceeds this limit is drained permanently; 0 means the
	// default, negative drains on the first crash.
	CrashLimit int
}

// Enabled reports whether any fault class is active.
func (sc *Scenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.ExcursionMTBF > 0 || sc.StragglerMTBF > 0
}

// ScenarioGrammar is the node fault grammar: one row per key, in String
// order. Parse, Normalized, Validate and String all read it.
var ScenarioGrammar = Grammar[Scenario]{Prefix: "faults", Params: []Param[Scenario]{
	{Key: "crash-mtbf", Float: func(s *Scenario) *float64 { return &s.CrashMTBF }, Hi: inf},
	{Key: "mttr", Float: func(s *Scenario) *float64 { return &s.MTTR }, Rule: DefaultAtLo, Def: 30, Hi: inf},
	{Key: "exc-mtbf", Float: func(s *Scenario) *float64 { return &s.ExcursionMTBF }, Hi: inf},
	{Key: "exc-frac", Float: func(s *Scenario) *float64 { return &s.ExcursionFrac }, Rule: DefaultAtLo, Def: 0.3, Hi: 0.95},
	{Key: "exc-dur", Float: func(s *Scenario) *float64 { return &s.ExcursionDur }, Rule: DefaultAtLo, Def: 20, Hi: inf},
	{Key: "strag-mtbf", Float: func(s *Scenario) *float64 { return &s.StragglerMTBF }, Hi: inf},
	{Key: "strag-factor", Float: func(s *Scenario) *float64 { return &s.StragglerFactor }, Rule: DefaultAtLo, Def: 1.5, Lo: 1, Hi: 100},
	{Key: "strag-dur", Float: func(s *Scenario) *float64 { return &s.StragglerDur }, Rule: DefaultAtLo, Def: 15, Hi: inf},
	{Key: "max-retries", Int: func(s *Scenario) *int { return &s.MaxRetries }, Rule: NegativeIsNone, Def: 3, Lo: -1, Hi: inf},
	{Key: "backoff", Float: func(s *Scenario) *float64 { return &s.BackoffBase }, Rule: DefaultAtLo, Def: 2, Hi: inf},
	{Key: "backoff-cap", Float: func(s *Scenario) *float64 { return &s.BackoffCap }, Rule: DefaultAtLo, Def: 60, Hi: inf},
	{Key: "jitter", Float: func(s *Scenario) *float64 { return &s.JitterFrac }, Rule: NegativeIsNone, Def: 0.25, Lo: -1, Hi: 10},
	{Key: "crash-limit", Int: func(s *Scenario) *int { return &s.CrashLimit }, Rule: NegativeIsNone, Def: 5, Lo: -1, Hi: inf},
	{Key: "seed", Uint: func(s *Scenario) *uint64 { return &s.Seed }, Hi: inf},
}}

var inf = math.Inf(1)

// Normalized returns a copy with each key's zero/negative rule applied.
func (sc *Scenario) Normalized() Scenario { return ScenarioGrammar.Normalized(*sc) }

// Validate rejects a scenario with a value that is not finite or out of
// range.
func (sc *Scenario) Validate() error { return ScenarioGrammar.Validate(sc) }

// String renders every key at its value, a spec Parse reads back to sc.
func (sc *Scenario) String() string { return ScenarioGrammar.String(sc) }

// Parse builds a Scenario from a comma-separated key=value spec, e.g.
// "crash-mtbf=120,mttr=30,exc-mtbf=300,seed=7". Unset parameters get
// their defaults (Normalized); the result is validated.
func Parse(spec string) (*Scenario, error) { return ScenarioGrammar.Parse(spec) }

// Streams returns one seeded stream per entity 0..n-1 for a stream salt,
// so no entity's draws depend on another's.
func Streams(seed, salt uint64, n int) []*rng.Source {
	s := make([]*rng.Source, n)
	for i := range s {
		s[i] = rng.New(rng.Derive(seed, salt, i))
	}
	return s
}
