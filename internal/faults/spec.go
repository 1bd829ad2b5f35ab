package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Param is one key of a fault-scenario grammar over the struct S.
// Exactly one of Float and Uint returns the key's field.
type Param[S any] struct {
	Key   string
	Float func(*S) *float64
	Uint  func(*S) *uint64
	// Def is the value of an unset key. A key with a nonzero Def also
	// takes it in place of a value at or below 0; a key whose Def is 0
	// keeps its value, so an MTBF of 0 disables its fault class.
	Def float64
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

// Normalized replaces every value at or below 0 of a key with a
// nonzero Def by that default. It is idempotent.
func (g *Grammar[S]) Normalized(s S) S {
	for i := range g.Params {
		p := &g.Params[i]
		if p.Def == 0 {
			continue
		}
		// -Inf is left for Validate to reject.
		if v := p.Float(&s); *v <= 0 && !math.IsInf(*v, -1) {
			*v = p.Def
		}
	}
	return s
}

// Validate requires every value of s to be finite and at least 0. It
// checks the values as given; callers normally Normalized first.
func (g *Grammar[S]) Validate(s *S) error {
	for i := range g.Params {
		p := &g.Params[i]
		if p.Float == nil {
			continue // a uint64 is always finite and at least 0
		}
		if v := *p.Float(s); !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("%s: %s must be finite and in [0, +Inf], got %s", g.Prefix, p.Key, p.format(s))
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

func (p *Param[S]) parse(s *S, v string) (err error) {
	if p.Float != nil {
		*p.Float(s), err = strconv.ParseFloat(v, 64)
	} else {
		*p.Uint(s), err = strconv.ParseUint(v, 10, 64)
	}
	return err
}

func (p *Param[S]) format(s *S) string {
	if p.Float != nil {
		return strconv.FormatFloat(*p.Float(s), 'g', -1, 64)
	}
	return strconv.FormatUint(*p.Uint(s), 10)
}
