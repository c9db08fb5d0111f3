package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestBuiltinsValid: every built-in scenario must validate and compile.
func TestBuiltinsValid(t *testing.T) {
	bs := Builtins()
	if len(bs) == 0 {
		t.Fatal("no built-in scenarios")
	}
	for _, s := range bs {
		if _, err := Compile(s); err != nil {
			t.Errorf("builtin %q: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("builtin %q: missing description", s.Name)
		}
	}
}

// TestBuiltinsSortedUnique: -list order is stable and names are unique.
func TestBuiltinsSortedUnique(t *testing.T) {
	bs := Builtins()
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Name >= bs[i].Name {
			t.Fatalf("builtins not sorted/unique at %d: %q >= %q", i, bs[i-1].Name, bs[i].Name)
		}
	}
	if _, ok := Lookup("fig1"); !ok {
		t.Fatal("Lookup(fig1) failed")
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

// TestRoundTrip: spec -> JSON -> spec is the identity for every builtin and
// for a spec exercising every optional field.
func TestRoundTrip(t *testing.T) {
	specs := Builtins()
	specs = append(specs, Spec{
		Name:        "kitchen-sink",
		Description: "all fields set",
		Workload: Workload{
			Kind:      KindNbody,
			Copies:    2,
			MemoryPct: []float64{100, 50},
			Baseline:  true,
			Nbody:     &NbodyOverrides{N: 16, Steps: 3, Seed: 7},
		},
		Machine: Machine{CPUs: 4, Costs: CostsTuned, DiskLatencyMs: 25},
		Binding: Binding{
			Systems: []string{SysNewFT},
			Procs:   []int{1, 4},
			Policy:  []string{PolicySpace, PolicyFCFS},
		},
		Limits: Limits{RunLimitMs: 60000, Workers: 2},
	})
	for _, want := range specs {
		got, err := Parse(Marshal(want))
		if err != nil {
			t.Fatalf("%s: parse of own marshal failed: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the spec:\n got %+v\nwant %+v", want.Name, got, want)
		}
		if Hash(got) != Hash(want) {
			t.Errorf("%s: round trip changed the hash", want.Name)
		}
	}
}

// TestParseStrict: unknown fields and trailing data are rejected with a
// useful message.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","proc":[1]}`)); err == nil {
		t.Fatal("unknown field accepted")
	} else if !strings.Contains(err.Error(), "unknown field") || !strings.Contains(err.Error(), "proc") {
		t.Fatalf("unknown-field error not descriptive: %v", err)
	}
	if _, err := Parse([]byte(`{"name":"x"} {"name":"y"}`)); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing data not rejected: %v", err)
	}
	if _, err := Parse([]byte(`{"machine":{"cpus":"six"}}`)); err == nil ||
		!strings.Contains(err.Error(), "cpus") {
		t.Fatalf("type-mismatch error missing field path: %v", err)
	}
}
