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

// TestBuiltinResumeKeysPinned pins every built-in spec's checkpoint
// identity, so a schema change that alters the canonical encoding (a new
// field without omitempty, a renamed tag) cannot orphan in-progress
// checkpoints unnoticed.
func TestBuiltinResumeKeysPinned(t *testing.T) {
	want := map[string]string{
		"alloc":      "5d0be4354fbd872a",
		"chaos64":    "81bf942fe2ae7726",
		"fig1":       "3869b206ad6b4503",
		"fig2":       "86eaa2eadfdd96b0",
		"fig2tuned":  "89b4905b43030c84",
		"hysteresis": "665975d95bc9e998",
		"table5":     "5860c797a3dc5a6e",
	}
	bs := Builtins()
	if len(bs) != len(want) {
		t.Fatalf("%d built-ins, %d pinned keys", len(bs), len(want))
	}
	for _, s := range bs {
		if got := ResumeKey(s); got != want[s.Name] {
			t.Errorf("builtin %q: resume key %s, pinned %s", s.Name, got, want[s.Name])
		}
	}
}

// TestResumeKey pins the resume-identity contract: extending the sweep or
// retuning workers keeps the key; anything result-bearing moves it.
func TestResumeKey(t *testing.T) {
	base := ChaosSpec(1, 64)
	key := ResumeKey(base)

	same := []func(Spec) Spec{
		func(s Spec) Spec { s.Faults.Seeds = 4096; return s },    // wider sweep
		func(s Spec) Spec { s.Limits.Workers = 13; return s },    // wall-clock only
		func(s Spec) Spec { s.Description = "edited"; return s }, // cosmetic
	}
	for i, mut := range same {
		s := ChaosSpec(1, 64) // fresh copy: Faults is a pointer
		if got := ResumeKey(mut(s)); got != key {
			t.Errorf("mutation %d should preserve the resume key: %s != %s", i, got, key)
		}
	}

	diff := []func(Spec) Spec{
		func(s Spec) Spec { s.Faults.FirstSeed = 2; return s },
		func(s Spec) Spec { s.Faults.StormMs = 1000; return s },
		func(s Spec) Spec { s.Faults.Ablate = AblateNoGrant; return s },
		func(s Spec) Spec { s.Machine.CPUs = 4; return s },
		func(s Spec) Spec { s.Name = "other"; return s },
		func(s Spec) Spec { s.Limits.RunLimitMs = 1; return s },
	}
	for i, mut := range diff {
		s := ChaosSpec(1, 64)
		if got := ResumeKey(mut(s)); got == key {
			t.Errorf("mutation %d should move the resume key", i)
		}
	}

	// ResumeKey must not mutate its argument (Faults is shared via pointer).
	s := ChaosSpec(1, 64)
	_ = ResumeKey(s)
	if s.Faults.Seeds != 64 {
		t.Fatalf("ResumeKey mutated the spec: seeds = %d", s.Faults.Seeds)
	}
}
