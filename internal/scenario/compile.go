package scenario

import "fmt"

// Job is one unit of fleet work lowered from a Spec: either one
// application run (System/Procs/Copies/MemPct/Policy/HysteresisUs filled)
// or one chaos seed (Seed filled). Jobs are pure data; the experiment
// harness interprets them. Job order is part of a program's identity — the
// fleet delivers results in job order, so aggregates and fingerprints are
// width-independent.
type Job struct {
	Index int    `json:"index"`
	Label string `json:"label"`

	// Application cells (nbody, bursty).
	System       string  `json:"system,omitempty"`
	Procs        int     `json:"procs,omitempty"`
	Copies       int     `json:"copies,omitempty"`
	MemPct       float64 `json:"mem_pct,omitempty"`
	Policy       string  `json:"policy,omitempty"`
	HysteresisUs float64 `json:"hysteresis_us,omitempty"`

	// Chaos seeds (mix).
	Seed int64 `json:"seed,omitempty"`
}

// Program is a compiled scenario: the validated spec, its identity hashes,
// and the ordered job list.
type Program struct {
	Spec Spec
	// Hash identifies the full spec (reports, caching).
	Hash uint64
	Jobs []Job
}

// Chaos reports whether the program's jobs are chaos seeds rather than
// application cells.
func (p *Program) Chaos() bool { return p.Spec.Workload.Kind == KindMix }

// Compile validates a Spec and lowers it into a Program. The lowering is
// total and deterministic: for application workloads the axes expand in
// fixed nesting order — systems (outer), policy, hysteresis, procs, memory
// (inner) — matching the presentation order of the paper's figures; for
// the mix workload each seed becomes one job in seed order.
func Compile(s Spec) (*Program, error) {
	if err := Validate(s); err != nil {
		return nil, err
	}
	p := &Program{Spec: s, Hash: Hash(s)}
	if s.Workload.Kind == KindMix {
		f := s.Faults
		for i := int64(0); i < f.Seeds; i++ {
			seed := f.FirstSeed + i
			p.Jobs = append(p.Jobs, Job{
				Index: len(p.Jobs),
				Label: fmt.Sprintf("seed %d", seed),
				Seed:  seed,
			})
		}
		return p, nil
	}

	copies := s.Workload.EffCopies()
	mems := s.Workload.EffMemoryPct()
	procs := s.Binding.EffProcs(s.Machine.CPUs)
	policies := s.Binding.EffPolicy()
	hyst := s.Binding.HysteresisUs
	if len(hyst) == 0 {
		hyst = []float64{0} // non-bursty: scheduler default, no axis
	}
	for _, sys := range s.Binding.Systems {
		for _, pol := range policies {
			for _, h := range hyst {
				for _, pr := range procs {
					for _, mem := range mems {
						p.Jobs = append(p.Jobs, Job{
							Index:        len(p.Jobs),
							Label:        appLabel(s, sys, pol, h, pr, mem, copies),
							System:       sys,
							Procs:        pr,
							Copies:       copies,
							MemPct:       mem,
							Policy:       pol,
							HysteresisUs: h,
						})
					}
				}
			}
		}
	}
	return p, nil
}

// appLabel names one application cell, mentioning only the axes the spec
// actually sweeps (plus the constant multiprogramming level), so labels
// stay short for one-dimensional scenarios and unambiguous for grids.
func appLabel(s Spec, sys, pol string, h float64, procs int, mem float64, copies int) string {
	label := sys
	if copies > 1 {
		label += fmt.Sprintf(" x%d", copies)
	}
	if len(s.Binding.Procs) > 1 || len(s.Binding.Procs) == 1 && s.Binding.Procs[0] != s.Machine.CPUs {
		label += fmt.Sprintf(" P=%d", procs)
	}
	if len(s.Workload.MemoryPct) > 1 {
		label += fmt.Sprintf(" mem=%.0f%%", mem)
	}
	if len(s.Binding.Policy) > 1 {
		label += " " + pol
	}
	if len(s.Binding.HysteresisUs) > 0 {
		label += fmt.Sprintf(" h=%gµs", h)
	}
	return label
}
