// Package faults holds the fault-scenario grammars and the seeded
// streams fault injection draws from. Scenario is the node scenario —
// the mean times between crashes, power-cap excursions and stragglers,
// and the mean repair time — that jobsched's node fault layer runs
// (episode sizes, the retry schedule of killed jobs and the per-node
// circuit breaker are jobsched's constants), and its comma-separated
// key=value grammar
// (ScenarioGrammar, on the generic Grammar of spec.go) is the one
// `clipsim -faults` and `clipd -faults` parse. fed reuses Grammar for
// its shard scenario.
//
// Streams cuts one SplitMix64 stream per entity from (scenario seed,
// stream salt, entity id), so a scenario replays byte-identically
// however its events interleave on the discrete-event timeline: node
// 3's second crash time does not depend on whether node 5 ever crashed.
package faults

import "repro/internal/rng"

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
	// StragglerMTBF is the per-node mean time between straggler
	// episodes; 0 disables stragglers.
	StragglerMTBF float64
}

// Enabled reports whether any fault class is active.
func (sc *Scenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.ExcursionMTBF > 0 || sc.StragglerMTBF > 0
}

// ScenarioGrammar is the node fault grammar: one row per key, in String
// order. Parse, Normalized, Validate and String all read it.
var ScenarioGrammar = Grammar[Scenario]{Prefix: "faults", Params: []Param[Scenario]{
	{Key: "crash-mtbf", Float: func(s *Scenario) *float64 { return &s.CrashMTBF }},
	{Key: "mttr", Float: func(s *Scenario) *float64 { return &s.MTTR }, Def: 30},
	{Key: "exc-mtbf", Float: func(s *Scenario) *float64 { return &s.ExcursionMTBF }},
	{Key: "strag-mtbf", Float: func(s *Scenario) *float64 { return &s.StragglerMTBF }},
	{Key: "seed", Uint: func(s *Scenario) *uint64 { return &s.Seed }},
}}

// Normalized returns a copy with an MTTR at or below 0 replaced by the
// default 30.
func (sc *Scenario) Normalized() Scenario { return ScenarioGrammar.Normalized(*sc) }

// Validate rejects a scenario with a value that is not finite or is
// negative.
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
