package experiments

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchTestConfig is a shrunken matrix: enough segments for both engine
// modes to make real decisions, small enough for the unit-test budget.
func benchTestConfig() BenchConfig {
	return BenchConfig{Segments: 30, Seed: 11}
}

// TestBenchDeterministicQuality pins the emitter's core promise: two runs
// of the same seeded matrix produce identical quality fields (perf fields
// are honest wall-clock measurements and may differ).
func TestBenchDeterministicQuality(t *testing.T) {
	a, err := RunBench(nil, benchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(nil, benchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cases) != len(b.Cases) || len(a.Cases) == 0 {
		t.Fatalf("case counts differ: %d vs %d", len(a.Cases), len(b.Cases))
	}
	for i := range a.Cases {
		qa, qb := a.Cases[i].Quality, b.Cases[i].Quality
		if qa.FinalRegret != nil && qb.FinalRegret != nil {
			if *qa.FinalRegret != *qb.FinalRegret {
				t.Fatalf("case %s: FinalRegret %v vs %v", a.Cases[i].Name, *qa.FinalRegret, *qb.FinalRegret)
			}
			qa.FinalRegret, qb.FinalRegret = nil, nil
		}
		if !reflect.DeepEqual(qa, qb) {
			t.Fatalf("case %s: quality fields differ between same-seed runs:\n%+v\n%+v",
				a.Cases[i].Name, qa, qb)
		}
	}
}

// TestBenchJSONRoundTrip writes a document to disk and validates it, and
// checks a handful of hand-broken documents fail validation.
func TestBenchJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_0.json")
	doc, err := WriteBenchJSON(nil, benchTestConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", doc.SchemaVersion, BenchSchemaVersion)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchJSON(data); err != nil {
		t.Fatalf("emitted document fails validation: %v", err)
	}

	breakages := []struct {
		name string
		mut  func(m map[string]any)
		want string
	}{
		{"wrong version", func(m map[string]any) { m["schema_version"] = 99.0 }, "schema_version"},
		{"missing tool", func(m map[string]any) { delete(m, "tool") }, "tool"},
		{"empty cases", func(m map[string]any) { m["cases"] = []any{} }, "empty cases"},
		{"bad mode", func(m map[string]any) {
			m["cases"].([]any)[0].(map[string]any)["mode"] = "sideways"
		}, "mode"},
		{"negative regret", func(m map[string]any) {
			m["cases"].([]any)[0].(map[string]any)["quality"].(map[string]any)["final_regret"] = -1.0
		}, "final_regret"},
		{"missing perf field", func(m map[string]any) {
			delete(m["cases"].([]any)[0].(map[string]any)["perf"].(map[string]any), "wall_seconds")
		}, "wall_seconds"},
		{"unknown top-level field", func(m map[string]any) {
			m["walltime_total"] = 3.0
		}, "unknown top-level field"},
		{"truncated perf object", func(m map[string]any) {
			delete(m["cases"].([]any)[0].(map[string]any)["perf"].(map[string]any), "ns_per_segment")
		}, "ns_per_segment"},
		{"missing allocs_per_op", func(m map[string]any) {
			delete(m["cases"].([]any)[0].(map[string]any)["perf"].(map[string]any), "allocs_per_op")
		}, "allocs_per_op"},
		{"NaN perf field", func(m map[string]any) {
			// encoding/json cannot emit NaN, but a hand-edited or foreign
			// document can smuggle it as a string; typed as non-number it
			// must be rejected, not coerced.
			m["cases"].([]any)[0].(map[string]any)["perf"].(map[string]any)["ns_per_segment"] = "NaN"
		}, "ns_per_segment"},
		{"negative allocs_per_op", func(m map[string]any) {
			m["cases"].([]any)[0].(map[string]any)["perf"].(map[string]any)["allocs_per_op"] = -4.0
		}, "allocs_per_op"},
	}
	for _, bk := range breakages {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		bk.mut(m)
		broken, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		err = ValidateBenchJSON(broken)
		if err == nil {
			t.Fatalf("%s: broken document passed validation", bk.name)
		}
		if !strings.Contains(err.Error(), bk.want) {
			t.Fatalf("%s: error %q does not mention %q", bk.name, err, bk.want)
		}
	}
	if err := ValidateBenchJSON([]byte("not json")); err == nil {
		t.Fatal("non-JSON input passed validation")
	}
	// A file truncated mid-write (crashed emitter, partial download) must
	// fail as malformed JSON, never half-validate.
	if err := ValidateBenchJSON(data[:len(data)/2]); err == nil {
		t.Fatal("truncated document passed validation")
	}
	// Raw NaN/Inf literals are not JSON at all; reject at the parse step.
	if err := ValidateBenchJSON([]byte(`{"schema_version": NaN}`)); err == nil {
		t.Fatal("NaN literal passed validation")
	}
}
