package workload

import (
	"encoding/json"
	"fmt"
	"os"
)

// JSON serialisation of workload specifications, so downstream users
// can describe their own applications in files (consumed by
// cmd/clipsim -spec and cmd/clipjobs). Enum types marshal as strings
// for readability.

// MarshalJSON implements json.Marshaler.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "linear":
		*c = Linear
	case "logarithmic":
		*c = Logarithmic
	case "parabolic":
		*c = Parabolic
	case "unknown", "":
		*c = Unknown
	default:
		return fmt.Errorf("workload: unknown class %q", s)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (a Affinity) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (a *Affinity) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "compact", "":
		*a = Compact
	case "scatter":
		*a = Scatter
	default:
		return fmt.Errorf("workload: unknown affinity %q", s)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (s Scaling) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON implements json.Unmarshaler.
func (s *Scaling) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "strong", "":
		*s = StrongScaling
	case "weak":
		*s = WeakScaling
	default:
		return fmt.Errorf("workload: unknown scaling %q", v)
	}
	return nil
}

// LoadSpecs reads and validates a JSON spec list.
func LoadSpecs(path string) ([]*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: read specs: %w", err)
	}
	var specs []*Spec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("workload: decode specs: %w", err)
	}
	for i, s := range specs {
		if s == nil {
			return nil, fmt.Errorf("workload: spec %d is null", i)
		}
		if s.ProfileIterations <= 0 {
			s.ProfileIterations = 4
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
