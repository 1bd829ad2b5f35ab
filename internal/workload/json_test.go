package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpecsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	orig := []*Spec{BTMZ(), Stream().WeakScaled(), XSBench()}
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(orig) {
		t.Fatalf("loaded %d specs, want %d", len(loaded), len(orig))
	}
	for i := range orig {
		a, b := orig[i], loaded[i]
		if a.Name != b.Name || a.PaperClass != b.PaperClass || a.Scaling != b.Scaling {
			t.Errorf("spec %d header corrupted: %+v vs %+v", i, a, b)
		}
		if len(a.Phases) != len(b.Phases) {
			t.Fatalf("spec %d phase count corrupted", i)
		}
		for j := range a.Phases {
			if a.Phases[j] != b.Phases[j] {
				t.Errorf("spec %d phase %d corrupted", i, j)
			}
		}
	}
}

func TestEnumsMarshalAsStrings(t *testing.T) {
	data, err := json.Marshal(BTMZ())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"logarithmic"`, `"strong"`} {
		if !strings.Contains(s, want) {
			t.Errorf("marshalled spec missing %s:\n%s", want, s)
		}
	}
}

func TestUnmarshalEnumErrors(t *testing.T) {
	var c Class
	if err := json.Unmarshal([]byte(`"cubic"`), &c); err == nil {
		t.Error("unknown class accepted")
	}
	var a Affinity
	if err := json.Unmarshal([]byte(`"diagonal"`), &a); err == nil {
		t.Error("unknown affinity accepted")
	}
	var sc Scaling
	if err := json.Unmarshal([]byte(`"diagonal"`), &sc); err == nil {
		t.Error("unknown scaling accepted")
	}
}

func TestUnmarshalEnumDefaults(t *testing.T) {
	var c Class
	if err := json.Unmarshal([]byte(`""`), &c); err != nil || c != Unknown {
		t.Error("empty class should default to unknown")
	}
	var a Affinity
	if err := json.Unmarshal([]byte(`""`), &a); err != nil || a != Compact {
		t.Error("empty affinity should default to compact")
	}
}

func TestLoadSpecsErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSpecs(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	garbled := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecs(garbled); err == nil {
		t.Error("garbled file accepted")
	}
	nullSpec := filepath.Join(dir, "null.json")
	if err := os.WriteFile(nullSpec, []byte("[null]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecs(nullSpec); err == nil {
		t.Error("null spec accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`[{"Name":"x","Iterations":5,"Phases":[]}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecs(invalid); err == nil {
		t.Error("spec without phases accepted")
	}
}

func TestLoadSpecsDefaultsProfileIterations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "min.json")
	minimal := `[{"Name":"custom","Iterations":50,
	  "Phases":[{"Name":"main","ParallelCycles":30,"MemoryBytes":10,"Overlap":0.5}],
	  "IPC":1.5}]`
	if err := os.WriteFile(path, []byte(minimal), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].ProfileIterations <= 0 {
		t.Error("ProfileIterations not defaulted")
	}
}
