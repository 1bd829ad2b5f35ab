package profile

import (
	"encoding/json"
	"fmt"
	"os"
)

// SaveDB writes a knowledge database (§IV-B3), profiles keyed by
// application name, as JSON to path.
func SaveDB(path string, profiles map[string]*Profile) error {
	data, err := json.MarshalIndent(profiles, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: encode db: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("profile: write db: %w", err)
	}
	return nil
}

// LoadDB reads a knowledge database written by SaveDB. Every entry must
// be a profile whose App is its key.
func LoadDB(path string) (map[string]*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profile: read db: %w", err)
	}
	var profiles map[string]*Profile
	if err := json.Unmarshal(data, &profiles); err != nil {
		return nil, fmt.Errorf("profile: decode db: %w", err)
	}
	if profiles == nil {
		return nil, fmt.Errorf("profile: decode db: not a JSON object")
	}
	for app, p := range profiles {
		if p == nil || p.App != app {
			return nil, fmt.Errorf("profile: db entry %q does not hold its profile", app)
		}
	}
	return profiles, nil
}
