package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Rule says what Normalized does with a key's zero or negative value.
type Rule uint8

const (
	// Literal keeps the value as given: an MTBF of 0 disables its fault
	// class, and the range check rejects a negative one.
	Literal Rule = iota
	// DefaultAtLo replaces a value at or below Lo with the default.
	DefaultAtLo
	// NegativeIsNone replaces 0 with the default and any negative value
	// with -1, which means none: no retries, no jitter, no crash
	// tolerance.
	NegativeIsNone
)

// Param is one key of a fault-scenario grammar over the struct S.
// Exactly one of Float, Int and Uint returns the key's field.
type Param[S any] struct {
	Key    string
	Float  func(*S) *float64
	Int    func(*S) *int
	Uint   func(*S) *uint64
	Rule   Rule
	Def    float64 // the value of an unset key
	Lo, Hi float64 // the valid range of the normalized value
}

// Grammar is a comma-separated key=value grammar over the scenario
// struct S, one Param per key. Parse, Normalized, Validate, String and
// the key list of an unknown-key error all read the same table, so
// every rendered scenario parses back to itself.
type Grammar[S any] struct {
	Prefix string     // of every error text, e.g. "faults"
	Params []Param[S] // in the order String renders them
}

// Parse builds an S from spec, e.g. "crash-mtbf=120,mttr=30,seed=7".
// Unset keys get their defaults (Normalized); the result is validated.
func (g *Grammar[S]) Parse(spec string) (*S, error) {
	var s S
	for _, kv := range strings.Split(spec, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%s: %q is not key=value", g.Prefix, kv)
		}
		k = strings.TrimSpace(k)
		p := g.param(k)
		if p == nil {
			return nil, fmt.Errorf("%s: unknown key %q (known: %s)", g.Prefix, k, strings.Join(g.keys(), ", "))
		}
		if err := p.parse(&s, strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("%s: bad value for %s: %v", g.Prefix, k, err)
		}
	}
	s = g.Normalized(s)
	if err := g.Validate(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalized applies every key's Rule to s. It is idempotent.
func (g *Grammar[S]) Normalized(s S) S {
	for i := range g.Params {
		p := &g.Params[i]
		v := p.value(&s)
		switch {
		case math.IsInf(v, 0): // left for Validate to reject
		case p.Rule == DefaultAtLo && v <= p.Lo, p.Rule == NegativeIsNone && v == 0:
			p.set(&s, p.Def)
		case p.Rule == NegativeIsNone && v < 0:
			p.set(&s, -1)
		}
	}
	return s
}

// Validate requires every value of s to be finite and in its range. It
// checks the values as given; callers normally Normalized first.
func (g *Grammar[S]) Validate(s *S) error {
	for i := range g.Params {
		p := &g.Params[i]
		if v := p.value(s); !(v >= p.Lo && v <= p.Hi) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s must be finite and in [%g, %g], got %s", g.Prefix, p.Key, p.Lo, p.Hi, p.format(s))
		}
	}
	return nil
}

// String renders every key of s at its value, in table order.
func (g *Grammar[S]) String(s *S) string {
	parts := make([]string, len(g.Params))
	for i := range g.Params {
		parts[i] = g.Params[i].Key + "=" + g.Params[i].format(s)
	}
	return strings.Join(parts, ",")
}

// keys returns the grammar's keys, sorted.
func (g *Grammar[S]) keys() []string {
	keys := make([]string, len(g.Params))
	for i := range g.Params {
		keys[i] = g.Params[i].Key
	}
	sort.Strings(keys)
	return keys
}

// param returns the row of key, or nil for an unknown key.
func (g *Grammar[S]) param(key string) *Param[S] {
	for i := range g.Params {
		if g.Params[i].Key == key {
			return &g.Params[i]
		}
	}
	return nil
}

func (p *Param[S]) value(s *S) float64 {
	switch {
	case p.Float != nil:
		return *p.Float(s)
	case p.Int != nil:
		return float64(*p.Int(s))
	}
	return float64(*p.Uint(s))
}

// set stores v, which Normalized only takes from Def or -1, so an Int
// field receives a whole number.
func (p *Param[S]) set(s *S, v float64) {
	if p.Float != nil {
		*p.Float(s) = v
	} else {
		*p.Int(s) = int(v)
	}
}

func (p *Param[S]) parse(s *S, v string) (err error) {
	switch {
	case p.Float != nil:
		*p.Float(s), err = strconv.ParseFloat(v, 64)
	case p.Int != nil:
		*p.Int(s), err = strconv.Atoi(v)
	default:
		*p.Uint(s), err = strconv.ParseUint(v, 10, 64)
	}
	return err
}

func (p *Param[S]) format(s *S) string {
	switch {
	case p.Float != nil:
		return strconv.FormatFloat(*p.Float(s), 'g', -1, 64)
	case p.Int != nil:
		return strconv.Itoa(*p.Int(s))
	}
	return strconv.FormatUint(*p.Uint(s), 10)
}
