package scenario

import (
	"fmt"
	"math"
	"strings"
)

// FieldError is one validation failure, carrying the JSON path of the
// offending field ("machine.cpus") so a spec author can fix the file
// without reading the schema source.
type FieldError struct {
	Path string // JSON field path, e.g. "binding.systems[1]"
	Msg  string
}

func (e FieldError) Error() string { return e.Path + ": " + e.Msg }

// ValidationError aggregates every FieldError found in one pass, so a
// malformed spec reports all its problems at once.
type ValidationError []FieldError

func (v ValidationError) Error() string {
	lines := make([]string, len(v))
	for i, e := range v {
		lines[i] = e.Error()
	}
	return "invalid scenario: " + strings.Join(lines, "; ")
}

// MaxCPUs bounds the simulated machine size.
const MaxCPUs = 64

// MaxSeeds bounds one compiled sweep's width. It is a memory limit: the
// fleet streams results, but Compile materialises one labelled Job per seed
// before the first seed runs, ~32 MiB at this bound.
const MaxSeeds = 1 << 16

// Validate checks a Spec for structural errors and returns nil or a
// ValidationError listing every offending field by path.
func Validate(s Spec) error {
	var errs ValidationError
	bad := func(path, format string, args ...any) {
		errs = append(errs, FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
	}

	if s.Name == "" {
		bad("name", "required")
	}

	kind := s.Workload.Kind
	switch kind {
	case KindNbody, KindBursty, KindMix:
	case "":
		bad("workload.kind", "required (nbody, bursty, or mix)")
	default:
		bad("workload.kind", "unknown kind %q (want nbody, bursty, or mix)", kind)
	}

	// Workload.
	if c := s.Workload.Copies; c != 0 {
		if kind != KindNbody {
			bad("workload.copies", "only the nbody workload multiprograms copies")
		} else if c < 1 || c > 8 {
			bad("workload.copies", "must be 1..8 (got %d)", c)
		}
	}
	for i, pct := range s.Workload.MemoryPct {
		if kind != KindNbody {
			bad("workload.memory_pct", "only the nbody workload has a memory axis")
			break
		}
		if pct <= 0 || pct > 100 {
			bad(fmt.Sprintf("workload.memory_pct[%d]", i), "must be in (0, 100] (got %g)", pct)
		}
	}
	if s.Workload.Baseline && kind != KindNbody {
		bad("workload.baseline", "only the nbody workload has a sequential baseline")
	}
	if nb := s.Workload.Nbody; nb != nil {
		if kind != KindNbody {
			bad("workload.nbody", "only valid for the nbody workload")
		}
		if nb.N < 0 {
			bad("workload.nbody.n", "must be >= 0 (got %d)", nb.N)
		}
		if nb.Steps < 0 {
			bad("workload.nbody.steps", "must be >= 0 (got %d)", nb.Steps)
		}
	}

	// Machine.
	if cpus := s.Machine.CPUs; kind == KindMix {
		if cpus < 0 || cpus > MaxCPUs {
			bad("machine.cpus", "must be 0 (seeded 2..5) or 1..%d (got %d)", MaxCPUs, cpus)
		}
	} else if cpus < 1 || cpus > MaxCPUs {
		bad("machine.cpus", "must be 1..%d (got %d)", MaxCPUs, cpus)
	}
	switch s.Machine.Costs {
	case "", CostsDefault, CostsTuned:
	default:
		bad("machine.costs", "unknown profile %q (want default or tuned)", s.Machine.Costs)
	}
	if d := s.Machine.DiskLatencyMs; d < 0 {
		bad("machine.disk_latency_ms", "must be >= 0 (got %g)", d)
	} else if d != 0 && kind == KindMix {
		bad("machine.disk_latency_ms", "the mix workload keeps the calibrated disk (storms jitter it)")
	}

	// Binding.
	switch {
	case kind == KindMix:
		if len(s.Binding.Systems) != 0 {
			bad("binding.systems", "the mix workload is defined on scheduler activations; leave empty")
		}
	case len(s.Binding.Systems) == 0:
		if kind == KindNbody || kind == KindBursty {
			bad("binding.systems", "required: list at least one of topaz, orig-ft, new-ft")
		}
	default:
		for i, sys := range s.Binding.Systems {
			switch sys {
			case SysTopaz, SysOrigFT, SysNewFT:
				if kind == KindBursty && sys != SysNewFT {
					bad(fmt.Sprintf("binding.systems[%d]", i), "the bursty workload runs on new-ft only")
				}
			default:
				bad(fmt.Sprintf("binding.systems[%d]", i), "unknown system %q (want topaz, orig-ft, or new-ft)", sys)
			}
		}
	}
	for i, p := range s.Binding.Procs {
		if kind != KindNbody {
			bad("binding.procs", "only the nbody workload has a parallelism axis")
			break
		}
		if p < 1 || (s.Machine.CPUs >= 1 && p > s.Machine.CPUs) {
			bad(fmt.Sprintf("binding.procs[%d]", i), "must be 1..machine.cpus=%d (got %d)", s.Machine.CPUs, p)
		}
	}
	if len(s.Binding.Policy) > 0 && (kind != KindNbody || !onlyNewFT(s.Binding.Systems)) {
		bad("binding.policy", "an allocation-policy axis needs the nbody workload on new-ft only")
	}
	seenPolicy := make(map[string]bool, len(s.Binding.Policy))
	for i, pol := range s.Binding.Policy {
		switch pol {
		case PolicySpace, PolicyFCFS:
		default:
			bad(fmt.Sprintf("binding.policy[%d]", i), "unknown policy %q (want space or fcfs)", pol)
		}
		if seenPolicy[pol] {
			bad(fmt.Sprintf("binding.policy[%d]", i), "duplicate policy %q (at most one of each)", pol)
		}
		seenPolicy[pol] = true
	}
	switch {
	case kind == KindBursty && len(s.Binding.HysteresisUs) == 0:
		bad("binding.hysteresis_us", "required for the bursty workload: list idle-spin settings in µs")
	case kind != KindBursty && len(s.Binding.HysteresisUs) != 0:
		bad("binding.hysteresis_us", "only the bursty workload sweeps hysteresis")
	default:
		for i, h := range s.Binding.HysteresisUs {
			if h <= 0 {
				bad(fmt.Sprintf("binding.hysteresis_us[%d]", i), "must be > 0 µs (got %g)", h)
			}
		}
	}

	// Faults.
	switch {
	case kind == KindMix && s.Faults == nil:
		bad("faults", "required for the mix workload (first_seed and seeds)")
	case kind != KindMix && s.Faults != nil:
		bad("faults", "only the mix workload is fault-injected")
	case s.Faults != nil:
		f := s.Faults
		if f.FirstSeed < 0 {
			bad("faults.first_seed", "must be >= 0 (got %d)", f.FirstSeed)
		} else if f.Seeds >= 1 && f.FirstSeed > math.MaxInt64-f.Seeds+1 {
			bad("faults.first_seed", "must be <= %d so the last of %d seeds fits in int64 (got %d)",
				math.MaxInt64-f.Seeds+1, f.Seeds, f.FirstSeed)
		}
		if f.Seeds < 1 || f.Seeds > MaxSeeds {
			bad("faults.seeds", "must be 1..%d (got %d)", MaxSeeds, f.Seeds)
		}
		if f.StormMs < 0 {
			bad("faults.storm_ms", "must be >= 0 (got %d)", f.StormMs)
		}
		if f.DrainMs < 0 {
			bad("faults.drain_ms", "must be >= 0 (got %d)", f.DrainMs)
		}
		switch f.Ablate {
		case "", AblateNoGrant, AblateDropEvent:
		default:
			bad("faults.ablate", "unknown ablation %q (want nogrant or dropevent)", f.Ablate)
		}
		if _, err := ParseReplay(f.Replay); err != nil {
			bad("faults.replay", "%v", err)
		}
	}

	// Limits.
	if s.Limits.RunLimitMs < 0 {
		bad("limits.run_limit_ms", "must be >= 0 (got %d)", s.Limits.RunLimitMs)
	}
	if w := s.Limits.Workers; w < 0 || w > 1024 {
		bad("limits.workers", "must be 0 (auto) or 1..1024 (got %d)", w)
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}

// onlyNewFT reports whether every listed system is new-ft.
func onlyNewFT(systems []string) bool {
	for _, s := range systems {
		if s != SysNewFT {
			return false
		}
	}
	return len(systems) > 0
}
