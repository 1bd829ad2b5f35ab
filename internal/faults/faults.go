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
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

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

// Default scenario parameters, applied by Normalized for fields left
// zero. They are exported so CLI help and docs can quote them.
const (
	// DefaultMTTR is the mean node repair time in seconds.
	DefaultMTTR = 30.0
	// DefaultExcursionFrac is the mean fraction of a node's budget a
	// power excursion removes.
	DefaultExcursionFrac = 0.3
	// DefaultExcursionDur is the mean excursion duration in seconds.
	DefaultExcursionDur = 20.0
	// DefaultStragglerFactor is the mean slowdown factor of a straggling
	// node.
	DefaultStragglerFactor = 1.5
	// DefaultStragglerDur is the mean straggler duration in seconds.
	DefaultStragglerDur = 15.0
	// DefaultMaxRetries bounds how often a killed job is re-enqueued.
	DefaultMaxRetries = 3
	// DefaultBackoffBase is the first retry delay in seconds.
	DefaultBackoffBase = 2.0
	// DefaultBackoffCap caps the exponential retry delay in seconds.
	DefaultBackoffCap = 60.0
	// DefaultJitterFrac is the relative jitter added to each backoff.
	DefaultJitterFrac = 0.25
	// DefaultCrashLimit is the per-node circuit breaker: one more crash
	// drains the node permanently.
	DefaultCrashLimit = 5
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
	// is reported failed; 0 means DefaultMaxRetries, negative means no
	// retries at all.
	MaxRetries int
	// BackoffBase is the first retry delay; doubles per attempt.
	BackoffBase float64
	// BackoffCap caps the exponential retry delay.
	BackoffCap float64
	// JitterFrac adds a deterministic per-(job, attempt) jitter of up to
	// this fraction on top of each backoff delay.
	JitterFrac float64
	// CrashLimit is the per-node circuit breaker: a node whose crash
	// count exceeds this limit is drained permanently; 0 means
	// DefaultCrashLimit, negative drains on the first crash.
	CrashLimit int
}

// Enabled reports whether any fault class is active.
func (sc *Scenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.ExcursionMTBF > 0 || sc.StragglerMTBF > 0
}

// Normalized returns a copy with defaults applied to zero-valued
// parameters (MTTR, excursion shape, straggler shape, retry policy).
func (sc *Scenario) Normalized() Scenario {
	out := *sc
	if out.MTTR <= 0 {
		out.MTTR = DefaultMTTR
	}
	if out.ExcursionFrac <= 0 {
		out.ExcursionFrac = DefaultExcursionFrac
	}
	if out.ExcursionDur <= 0 {
		out.ExcursionDur = DefaultExcursionDur
	}
	if out.StragglerFactor <= 1 {
		out.StragglerFactor = DefaultStragglerFactor
	}
	if out.StragglerDur <= 0 {
		out.StragglerDur = DefaultStragglerDur
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = DefaultMaxRetries
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = DefaultBackoffBase
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = DefaultBackoffCap
	}
	if out.JitterFrac < 0 {
		out.JitterFrac = 0
	} else if out.JitterFrac == 0 {
		out.JitterFrac = DefaultJitterFrac
	}
	if out.CrashLimit == 0 {
		out.CrashLimit = DefaultCrashLimit
	}
	return out
}

// Validate rejects scenarios whose parameters are out of range. It
// validates the raw values; callers normally Normalized() first.
func (sc *Scenario) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"crash-mtbf", sc.CrashMTBF}, {"mttr", sc.MTTR},
		{"exc-mtbf", sc.ExcursionMTBF}, {"exc-dur", sc.ExcursionDur},
		{"strag-mtbf", sc.StragglerMTBF}, {"strag-dur", sc.StragglerDur},
		{"backoff", sc.BackoffBase}, {"backoff-cap", sc.BackoffCap},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be a finite non-negative duration, got %g", f.name, f.v)
		}
	}
	if sc.ExcursionFrac < 0 || sc.ExcursionFrac > 0.95 {
		return fmt.Errorf("faults: exc-frac must be in [0, 0.95], got %g", sc.ExcursionFrac)
	}
	if sc.StragglerFactor < 0 || sc.StragglerFactor > 100 {
		return fmt.Errorf("faults: strag-factor must be in [0, 100], got %g", sc.StragglerFactor)
	}
	if sc.JitterFrac < 0 || sc.JitterFrac > 10 {
		return fmt.Errorf("faults: jitter must be in [0, 10], got %g", sc.JitterFrac)
	}
	return nil
}

// String renders the scenario as a canonical Parse-able spec (active
// fault classes first, then the retry policy).
func (sc *Scenario) String() string {
	var parts []string
	add := func(k string, v float64) { parts = append(parts, fmt.Sprintf("%s=%g", k, v)) }
	if sc.CrashMTBF > 0 {
		add("crash-mtbf", sc.CrashMTBF)
		add("mttr", sc.MTTR)
	}
	if sc.ExcursionMTBF > 0 {
		add("exc-mtbf", sc.ExcursionMTBF)
		add("exc-frac", sc.ExcursionFrac)
		add("exc-dur", sc.ExcursionDur)
	}
	if sc.StragglerMTBF > 0 {
		add("strag-mtbf", sc.StragglerMTBF)
		add("strag-factor", sc.StragglerFactor)
		add("strag-dur", sc.StragglerDur)
	}
	parts = append(parts, fmt.Sprintf("max-retries=%d", sc.MaxRetries),
		fmt.Sprintf("crash-limit=%d", sc.CrashLimit),
		fmt.Sprintf("seed=%d", sc.Seed))
	return strings.Join(parts, ",")
}

// Parse builds a Scenario from a comma-separated key=value spec, e.g.
// "crash-mtbf=120,mttr=30,exc-mtbf=300,seed=7". Unset parameters get
// their defaults (Normalized); the result is validated.
func Parse(spec string) (*Scenario, error) {
	sc := Scenario{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			sc.Seed, err = strconv.ParseUint(v, 10, 64)
		case "crash-mtbf":
			sc.CrashMTBF, err = strconv.ParseFloat(v, 64)
		case "mttr":
			sc.MTTR, err = strconv.ParseFloat(v, 64)
		case "exc-mtbf":
			sc.ExcursionMTBF, err = strconv.ParseFloat(v, 64)
		case "exc-frac":
			sc.ExcursionFrac, err = strconv.ParseFloat(v, 64)
		case "exc-dur":
			sc.ExcursionDur, err = strconv.ParseFloat(v, 64)
		case "strag-mtbf":
			sc.StragglerMTBF, err = strconv.ParseFloat(v, 64)
		case "strag-factor":
			sc.StragglerFactor, err = strconv.ParseFloat(v, 64)
		case "strag-dur":
			sc.StragglerDur, err = strconv.ParseFloat(v, 64)
		case "max-retries":
			sc.MaxRetries, err = strconv.Atoi(v)
		case "backoff":
			sc.BackoffBase, err = strconv.ParseFloat(v, 64)
		case "backoff-cap":
			sc.BackoffCap, err = strconv.ParseFloat(v, 64)
		case "jitter":
			sc.JitterFrac, err = strconv.ParseFloat(v, 64)
		case "crash-limit":
			sc.CrashLimit, err = strconv.Atoi(v)
		default:
			keys := []string{"seed", "crash-mtbf", "mttr", "exc-mtbf", "exc-frac", "exc-dur",
				"strag-mtbf", "strag-factor", "strag-dur", "max-retries", "backoff",
				"backoff-cap", "jitter", "crash-limit"}
			sort.Strings(keys)
			return nil, fmt.Errorf("faults: unknown key %q (known: %s)", k, strings.Join(keys, ", "))
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	norm := sc.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	return &norm, nil
}

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
	in := &Injector{
		sc:      sc,
		crash:   make([]*rng.Source, nodes),
		exc:     make([]*rng.Source, nodes),
		strag:   make([]*rng.Source, nodes),
		health:  make([]Health, nodes),
		crashes: make([]int, nodes),
	}
	for i := 0; i < nodes; i++ {
		in.crash[i] = rng.New(rng.Derive(sc.Seed, saltCrash, i))
		in.exc[i] = rng.New(rng.Derive(sc.Seed, saltExcursion, i))
		in.strag[i] = rng.New(rng.Derive(sc.Seed, saltStraggler, i))
	}
	return in
}

// Scenario returns the (normalized) scenario driving the injector.
func (in *Injector) Scenario() Scenario { return in.sc }

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
// of draw interleaving, so retries replay byte-identically.
func (in *Injector) Backoff(jobID string, attempt int) float64 {
	return rng.Backoff(in.sc.Seed^hashString(jobID), saltBackoff, attempt,
		in.sc.BackoffBase, in.sc.BackoffCap, in.sc.JitterFrac)
}
