package scenario

import (
	"strings"
	"testing"
)

// TestValidateMalformed drives Validate over malformed specs and asserts the
// error names the offending field by JSON path. The raw-JSON rows pin
// fields the schema no longer has: strict Parse must reject them.
func TestValidateMalformed(t *testing.T) {
	nb := func(mut func(*Spec)) Spec {
		s := Fig1()
		mut(&s)
		return s
	}
	mix := func(mut func(*Spec)) Spec {
		s := ChaosSpec(1, 8)
		mut(&s)
		return s
	}

	cases := []struct {
		name string
		spec Spec
		path string // must appear in the error
		msg  string // substring of the message, "" = any
	}{
		{"missing name", nb(func(s *Spec) { s.Name = "" }), "name", "required"},
		{"missing kind", nb(func(s *Spec) { s.Workload.Kind = "" }), "workload.kind", "required"},
		{"bad kind", nb(func(s *Spec) { s.Workload.Kind = "qsort" }), "workload.kind", `"qsort"`},
		{"copies out of range", nb(func(s *Spec) { s.Workload.Copies = 9 }), "workload.copies", "1..8"},
		{"copies on bursty", Spec{Name: "x", Workload: Workload{Kind: KindBursty, Copies: 2},
			Machine: Machine{CPUs: 2}, Binding: Binding{Systems: []string{SysNewFT}, HysteresisUs: []float64{5}}},
			"workload.copies", "nbody"},
		{"memory pct range", nb(func(s *Spec) { s.Workload.MemoryPct = []float64{100, 0} }),
			"workload.memory_pct[1]", "(0, 100]"},
		{"negative nbody n", nb(func(s *Spec) { s.Workload.Nbody = &NbodyOverrides{N: -1} }),
			"workload.nbody.n", ">= 0"},
		{"cpus zero", nb(func(s *Spec) { s.Machine.CPUs = 0 }), "machine.cpus", "must be 1..64 (got 0)"},
		{"cpus huge", nb(func(s *Spec) { s.Machine.CPUs = 65 }), "machine.cpus", "must be 1..64 (got 65)"},
		{"mix cpus huge", mix(func(s *Spec) { s.Machine.CPUs = 100 }), "machine.cpus", "0 (seeded 2..5) or 1..64"},
		{"bad costs", nb(func(s *Spec) { s.Machine.Costs = "free" }), "machine.costs", `"free"`},
		{"negative disk", nb(func(s *Spec) { s.Machine.DiskLatencyMs = -1 }), "machine.disk_latency_ms", ">= 0"},
		{"mix disk override", mix(func(s *Spec) { s.Machine.DiskLatencyMs = 5 }), "machine.disk_latency_ms", "mix"},
		{"no systems", nb(func(s *Spec) { s.Binding.Systems = nil }), "binding.systems", "required"},
		{"bad system", nb(func(s *Spec) { s.Binding.Systems = []string{SysTopaz, "linux"} }),
			"binding.systems[1]", `"linux"`},
		{"mix with systems", mix(func(s *Spec) { s.Binding.Systems = []string{SysNewFT} }),
			"binding.systems", "leave empty"},
		{"procs out of range", nb(func(s *Spec) { s.Binding.Procs = []int{1, 7} }),
			"binding.procs[1]", "1..machine.cpus=6"},
		{"bad policy", nb(func(s *Spec) {
			s.Binding.Systems = []string{SysNewFT}
			s.Binding.Policy = []string{"lottery"}
		}), "binding.policy[0]", `"lottery"`},
		{"policy needs new-ft only", nb(func(s *Spec) { s.Binding.Policy = []string{PolicyFCFS} }),
			"binding.policy", "new-ft only"},
		{"duplicate space policy", nb(func(s *Spec) {
			s.Binding.Systems = []string{SysNewFT}
			s.Binding.Policy = []string{PolicySpace, PolicySpace}
		}), "binding.policy[1]", "duplicate"},
		{"duplicate fcfs policy", nb(func(s *Spec) {
			s.Binding.Systems = []string{SysNewFT}
			s.Binding.Policy = []string{PolicyFCFS, PolicyFCFS}
		}), "binding.policy[1]", "duplicate"},
		{"triple policy", nb(func(s *Spec) {
			s.Binding.Systems = []string{SysNewFT}
			s.Binding.Policy = []string{PolicySpace, PolicyFCFS, PolicySpace}
		}), "binding.policy[2]", "duplicate"},
		{"hysteresis on nbody", nb(func(s *Spec) { s.Binding.HysteresisUs = []float64{5} }),
			"binding.hysteresis_us", "bursty"},
		{"bursty needs hysteresis", Spec{Name: "x", Workload: Workload{Kind: KindBursty},
			Machine: Machine{CPUs: 2}, Binding: Binding{Systems: []string{SysNewFT}}},
			"binding.hysteresis_us", "required"},
		{"bursty on topaz", Spec{Name: "x", Workload: Workload{Kind: KindBursty},
			Machine: Machine{CPUs: 2}, Binding: Binding{Systems: []string{SysTopaz}, HysteresisUs: []float64{5}}},
			"binding.systems[0]", "new-ft"},
		{"mix without faults", Spec{Name: "x", Workload: Workload{Kind: KindMix}}, "faults", "required"},
		{"faults on nbody", nb(func(s *Spec) { s.Faults = &Faults{FirstSeed: 1, Seeds: 1} }),
			"faults", "mix"},
		{"zero seeds", mix(func(s *Spec) { s.Faults.Seeds = 0 }), "faults.seeds", "1.."},
		{"negative first seed", mix(func(s *Spec) { s.Faults.FirstSeed = -1 }), "faults.first_seed", ">= 0"},
		{"bad ablate", mix(func(s *Spec) { s.Faults.Ablate = "rm-rf" }), "faults.ablate", `"rm-rf"`},
		{"negative run limit", nb(func(s *Spec) { s.Limits.RunLimitMs = -1 }), "limits.run_limit_ms", ">= 0"},
		{"workers out of range", nb(func(s *Spec) { s.Limits.Workers = -2 }), "limits.workers", "1024"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.spec)
			if err == nil {
				t.Fatalf("spec accepted: %+v", tc.spec)
			}
			verr, ok := err.(ValidationError)
			if !ok {
				t.Fatalf("not a ValidationError: %T %v", err, err)
			}
			found := false
			for _, fe := range verr {
				if fe.Path == tc.path && (tc.msg == "" || strings.Contains(fe.Msg, tc.msg)) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no error at path %q containing %q; got: %v", tc.path, tc.msg, err)
			}
		})
	}

	raws := []struct{ name, raw, msg string }{
		{"bad engine", `{"binding":{"engine":"par"}}`, `unknown field "engine"`},
		{"lps without par", `{"binding":{"lps":2}}`, `unknown field "lps"`},
		{"lps out of range", `{"binding":{"lps":99}}`, `unknown field "lps"`},
	}
	for _, tc := range raws {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("Parse(%s) = %v, want an error containing %s", tc.raw, err, tc.msg)
			}
		})
	}
}

// TestValidateAggregates: a spec with several problems reports all of them.
func TestValidateAggregates(t *testing.T) {
	s := Spec{Workload: Workload{Kind: "qsort"}, Machine: Machine{CPUs: 99}}
	err := Validate(s)
	verr, ok := err.(ValidationError)
	if !ok || len(verr) < 3 {
		t.Fatalf("want >=3 aggregated field errors, got %v", err)
	}
	if !strings.Contains(verr.Error(), "invalid scenario: ") {
		t.Fatalf("joined message malformed: %v", verr)
	}
}
