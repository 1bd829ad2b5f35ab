// Package faults is a deterministic fault-injection engine for the
// power-bounded runtime: it draws node crashes, transient power-cap
// excursions (sensor noise / thermal derate of a node's effective
// budget) and straggler slowdowns from seeded per-node streams, and
// tracks each node's health through the healthy → quarantined → drained
// state machine the degraded-mode scheduler consumes.
//
// Every draw flows through internal/rng with a seed derived from
// (scenario seed, fault class, node id), so a scenario replays
// byte-identically regardless of how its events interleave on the
// discrete-event timeline: node 3's second crash time does not depend
// on whether node 5 ever crashed. Retry backoff jitter is likewise
// stateless — a hash of (seed, job id, attempt) — so a re-run with more
// scheduler concurrency cannot perturb it.
package faults

import (
	"math"

	"repro/internal/rng"
)

// Health is a node's position in the failure state machine.
type Health uint8

const (
	// Healthy nodes accept placements.
	Healthy Health = iota
	// Quarantined nodes crashed and are excluded from placement until
	// their recovery event fires.
	Quarantined
	// Drained nodes tripped the per-node circuit breaker (more than
	// CrashLimit crashes) and never return to service.
	Drained
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Quarantined:
		return "quarantined"
	case Drained:
		return "drained"
	default:
		return "healthy"
	}
}

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

// Excursion is one drawn power-cap excursion: it begins After seconds
// from the previous draw point, removes Frac of the node's effective
// budget, and lasts Dur seconds.
type Excursion struct {
	After float64
	Frac  float64
	Dur   float64
}

// Straggler is one drawn slowdown episode: it begins After seconds from
// the previous draw point, multiplies iteration time by Factor, and
// lasts Dur seconds.
type Straggler struct {
	After  float64
	Factor float64
	Dur    float64
}

// Injector draws fault events and tracks node health for one run. It is
// not safe for concurrent use; the discrete-event scheduler drives it
// from a single goroutine.
type Injector struct {
	sc      Scenario
	crash   []*rng.Source
	exc     []*rng.Source
	strag   []*rng.Source
	health  []Health
	crashes []int
	quar    int // nodes currently quarantined (excludes drained)
	drained int
}

// Stream salts: one independent SplitMix64 stream per (class, node).
const (
	saltCrash     = 0x435241534855_0001 // "CRASHU"
	saltExcursion = 0x455843555253_0002
	saltStraggler = 0x535452414747_0003
	saltBackoff   = 0x4241434b4f46_0004
)

// NewInjector builds an injector for nodes nodes under the normalized
// scenario sc.
func NewInjector(sc Scenario, nodes int) *Injector {
	return &Injector{
		sc:      sc,
		crash:   Streams(sc.Seed, saltCrash, nodes),
		exc:     Streams(sc.Seed, saltExcursion, nodes),
		strag:   Streams(sc.Seed, saltStraggler, nodes),
		health:  make([]Health, nodes),
		crashes: make([]int, nodes),
	}
}

// Streams returns one seeded stream per entity 0..n-1 for a stream salt,
// so no entity's draws depend on another's.
func Streams(seed, salt uint64, n int) []*rng.Source {
	s := make([]*rng.Source, n)
	for i := range s {
		s[i] = rng.New(rng.Derive(seed, salt, i))
	}
	return s
}

// NextCrash draws the delay to node's next crash; ok is false when
// crashes are disabled or the node is drained.
func (in *Injector) NextCrash(node int) (dt float64, ok bool) {
	if in.sc.CrashMTBF <= 0 || in.health[node] == Drained {
		return 0, false
	}
	return in.crash[node].Exp(in.sc.CrashMTBF), true
}

// RecoveryDelay draws node's repair time for its current crash (the
// crash stream alternates crash-delay / repair-time draws, so a node's
// schedule is independent of every other node's).
func (in *Injector) RecoveryDelay(node int) float64 {
	return in.crash[node].Exp(in.sc.MTTR)
}

// NextExcursion draws node's next power-cap excursion; ok is false when
// excursions are disabled.
func (in *Injector) NextExcursion(node int) (Excursion, bool) {
	if in.sc.ExcursionMTBF <= 0 {
		return Excursion{}, false
	}
	src := in.exc[node]
	ex := Excursion{
		After: src.Exp(in.sc.ExcursionMTBF),
		Frac:  math.Min(0.95, in.sc.ExcursionFrac*src.Range(0.75, 1.25)),
		Dur:   in.sc.ExcursionDur * src.Range(0.5, 1.5),
	}
	return ex, true
}

// NextStraggler draws node's next slowdown episode; ok is false when
// stragglers are disabled.
func (in *Injector) NextStraggler(node int) (Straggler, bool) {
	if in.sc.StragglerMTBF <= 0 {
		return Straggler{}, false
	}
	src := in.strag[node]
	st := Straggler{
		After:  src.Exp(in.sc.StragglerMTBF),
		Factor: 1 + (in.sc.StragglerFactor-1)*src.Range(0.5, 1.5),
		Dur:    in.sc.StragglerDur * src.Range(0.5, 1.5),
	}
	return st, true
}

// Health returns node's current health.
func (in *Injector) Health(node int) Health { return in.health[node] }

// Crashes returns how often node has crashed.
func (in *Injector) Crashes(node int) int { return in.crashes[node] }

// RecordCrash moves node to Quarantined — or to Drained when its crash
// count exceeds the circuit-breaker limit — and returns the new state.
func (in *Injector) RecordCrash(node int) Health {
	in.crashes[node]++
	switch in.health[node] {
	case Healthy:
		in.quar++
	case Drained:
		return Drained // defensive: a drained node cannot crash again
	}
	if in.crashes[node] > in.sc.CrashLimit {
		in.health[node] = Drained
		in.quar--
		in.drained++
		return Drained
	}
	in.health[node] = Quarantined
	return Quarantined
}

// Recover returns a quarantined node to Healthy; it reports false (and
// does nothing) for drained nodes.
func (in *Injector) Recover(node int) bool {
	if in.health[node] != Quarantined {
		return false
	}
	in.health[node] = Healthy
	in.quar--
	return true
}

// Unhealthy counts nodes currently out of service (quarantined or
// drained).
func (in *Injector) Unhealthy() int { return in.quar + in.drained }

// DrainedCount counts permanently drained nodes.
func (in *Injector) DrainedCount() int { return in.drained }

// AllDrained reports whether every node has been drained — no job can
// ever run again.
func (in *Injector) AllDrained() bool { return in.drained == len(in.health) }

// MaxRetries returns the effective retry limit (negative Scenario
// values mean zero retries).
func (in *Injector) MaxRetries() int {
	if in.sc.MaxRetries < 0 {
		return 0
	}
	return in.sc.MaxRetries
}

// hashString is FNV-1a over s (stateless job-id hashing for backoff
// jitter).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Backoff returns the retry delay before attempt (1-based re-run
// attempt) of jobID: capped exponential growth from BackoffBase with a
// deterministic jitter derived from (seed, job, attempt) — independent
// of draw interleaving, so retries replay byte-identically. A negative
// JitterFrac adds none.
func (in *Injector) Backoff(jobID string, attempt int) float64 {
	return rng.Backoff(in.sc.Seed^hashString(jobID), saltBackoff, attempt,
		in.sc.BackoffBase, in.sc.BackoffCap, math.Max(0, in.sc.JitterFrac))
}
