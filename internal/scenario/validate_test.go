package scenario

import (
	"math"
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
		{"seed range overflows int64", mix(func(s *Spec) { s.Faults.FirstSeed, s.Faults.Seeds = math.MaxInt64, 2 }),
			"faults.first_seed", "fits in int64"},
		{"seeds past MaxSeeds", mix(func(s *Spec) { s.Faults.Seeds = 65537 }), "faults.seeds", "1..65536"},
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

// TestValidateShardAndReplay covers the two fields that once sat beside each
// other in the mix schema. faults.replay is still validated: bad modes are
// rejected by path and every good mode is accepted. The shard field is gone
// from the schema, so a spec written for the old shard pipeline must be
// refused by strict Parse rather than silently run as the whole sweep.
func TestValidateShardAndReplay(t *testing.T) {
	mix := func(mut func(*Spec)) Spec {
		s := ChaosSpec(1, 8)
		mut(&s)
		return s
	}
	withShard := func(s Spec, shard string) []byte {
		raw := Marshal(s)
		i := strings.LastIndexByte(string(raw), '}')
		return append(raw[:i:i], []byte(`,"shard":`+shard+"}")...)
	}
	shards := []struct {
		name string
		raw  []byte
	}{
		{"shard on nbody", withShard(Fig1(), `{"index":1,"of":2}`)},
		{"shard of zero", withShard(ChaosSpec(1, 8), `{"index":1,"of":0}`)},
		{"shard index zero", withShard(ChaosSpec(1, 8), `{"index":0,"of":4}`)},
		{"shard index past of", withShard(ChaosSpec(1, 8), `{"index":5,"of":4}`)},
		{"more shards than seeds", withShard(ChaosSpec(1, 8), `{"index":1,"of":9}`)},
	}
	for _, tc := range shards {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.raw); err == nil || !strings.Contains(err.Error(), `unknown field "shard"`) {
				t.Fatalf("Parse(%s) = %v, want an unknown-field error for shard", tc.raw, err)
			}
		})
	}
	replays := []struct {
		name string
		spec Spec
		msg  string
	}{
		{"replay gibberish", mix(func(s *Spec) { s.Faults.Replay = "sometimes" }), "unknown replay mode"},
		{"replay sample zero", mix(func(s *Spec) { s.Faults.Replay = "sample:0" }), "sample period"},
		{"replay sample junk", mix(func(s *Spec) { s.Faults.Replay = "sample:x" }), "sample period"},
	}
	for _, tc := range replays {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.spec)
			verr, ok := err.(ValidationError)
			if !ok {
				t.Fatalf("want a ValidationError, got %T %v", err, err)
			}
			for _, fe := range verr {
				if fe.Path == "faults.replay" && strings.Contains(fe.Msg, tc.msg) {
					return
				}
			}
			t.Fatalf("no error at path faults.replay containing %q; got: %v", tc.msg, err)
		})
	}
	for _, mode := range []string{ReplayFull, ReplayOff, "sample:3"} {
		if err := Validate(mix(func(s *Spec) { s.Faults.Replay = mode })); err != nil {
			t.Errorf("replay %q rejected: %v", mode, err)
		}
	}
}

// TestValidateAccepts pins the seed-range edges Validate must still let
// through: the largest first seed whose range fits in int64, and a sweep
// exactly MaxSeeds wide.
func TestValidateAccepts(t *testing.T) {
	mix := func(mut func(*Spec)) Spec {
		s := ChaosSpec(1, 8)
		mut(&s)
		return s
	}
	for _, s := range []Spec{
		mix(func(s *Spec) { s.Faults.FirstSeed, s.Faults.Seeds = math.MaxInt64-1, 2 }),
		mix(func(s *Spec) { s.Faults.Seeds = MaxSeeds }),
	} {
		if err := Validate(s); err != nil {
			t.Errorf("valid spec rejected: %v", err)
		}
	}
}

// TestParseReplayPeriods pins the mode → period mapping the runner relies on
// (the replay decision must be a pure function of the seed, so every fleet
// width agrees on the period).
func TestParseReplayPeriods(t *testing.T) {
	cases := []struct {
		mode  string
		every int64
	}{
		{"", 1}, {ReplayFull, 1}, {ReplayOff, 0}, {"sample:1", 1}, {"sample:4", 4}, {"sample:1000", 1000},
	}
	for _, tc := range cases {
		every, err := ParseReplay(tc.mode)
		if err != nil || every != tc.every {
			t.Errorf("ParseReplay(%q) = (%d, %v), want (%d, nil)", tc.mode, every, err, tc.every)
		}
	}
	f := &Faults{Replay: "sample:4"}
	if f.EffReplayEvery() != 4 {
		t.Errorf("EffReplayEvery(sample:4) = %d", f.EffReplayEvery())
	}
	var nilFaults *Faults
	if nilFaults.EffReplayEvery() != 1 {
		t.Error("nil Faults should default to full replay")
	}
}
