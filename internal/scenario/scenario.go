// Package scenario is the declarative experiment layer: a Spec describes
// what to simulate — workload, machine shape, scheduler binding, fault
// schedule, run limits — as plain data (Go struct or JSON), and Compile
// lowers a validated Spec into an ordered list of fleet jobs.
//
// The paper's evaluation is a fixed set of figures and tables; this layer
// turns each of them — and any scenario a user can describe — into a config
// file instead of a bespoke Go program. The experiment harness
// (internal/exp) interprets compiled programs on warm run contexts with
// streaming aggregation, checkpoint/resume, and deterministic
// width-independent fingerprints; the canonical batteries (Figure 1/2,
// Table 5, the ablation grid, the chaos sweep) are themselves built-in
// specs compiled through this exact path, so the spec pipeline is pinned by
// the same fingerprint and golden-trace oracles as the hand-written
// batteries it replaced.
//
// The package is pure data and policy: it imports no simulation layer, so
// specs can be validated, hashed, and compiled anywhere (tests, tools, a
// future submission service) without dragging the engine along.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// Workload kinds.
const (
	// KindNbody is the paper's N-body application (§5.3): Figure 1/2,
	// Table 5, and the allocator ablation all run it.
	KindNbody = "nbody"
	// KindBursty is the hysteresis-ablation workload: a bursty
	// compute/IO application sharing the machine with a processor-hungry
	// competitor (§4.2).
	KindBursty = "bursty"
	// KindMix is the chaos battery's randomized mixed workload on the
	// scheduler-activation kernel, fault-injected and audited; jobs are
	// seeds, not system×axis cells.
	KindMix = "mix"
)

// Scheduler bindings (Binding.Systems). These name the three
// application-level systems of §5.3.
const (
	SysTopaz  = "topaz"   // native Topaz kernel threads
	SysOrigFT = "orig-ft" // original FastThreads on kernel threads
	SysNewFT  = "new-ft"  // new FastThreads on scheduler activations
)

// Cost profiles (Machine.Costs).
const (
	CostsDefault = "default" // calibrated prototype cost table
	CostsTuned   = "tuned"   // §5.2's projected tuned-upcall profile
)

// Allocation policies (Binding.Policy).
const (
	PolicySpace = "space" // §4.1 space-sharing allocator (the default)
	PolicyFCFS  = "fcfs"  // first-come-first-served ablation
)

// Chaos ablations (Faults.Ablate): deliberately broken kernels the auditor
// must catch.
const (
	AblateNoGrant   = "nogrant"
	AblateDropEvent = "dropevent"
)

// Replay modes (Faults.Replay).
const (
	ReplayFull = "full" // every seed re-run and fingerprint-compared (default)
	ReplayOff  = "off"  // no replay check
	// "sample:N" replays only seeds divisible by N; see ParseReplay.
)

// Spec is one declarative scenario. The zero value of every optional field
// means "the canonical default"; Validate reports structural errors with
// the offending field path, and Compile lowers a valid Spec into jobs.
type Spec struct {
	// Name identifies the scenario (checkpoint keys, -list, reports).
	Name string `json:"name"`
	// Description is the one-line summary printed by saexp -list.
	Description string `json:"description,omitempty"`

	Workload Workload `json:"workload"`
	Machine  Machine  `json:"machine"`
	Binding  Binding  `json:"binding"`
	// Faults is the fault schedule; required for KindMix, absent otherwise
	// (the chaos injector instruments the scheduler-activation mixed
	// workload only).
	Faults *Faults `json:"faults,omitempty"`
	Limits Limits  `json:"limits,omitempty"`
	// Shard, when non-nil, selects one contiguous slice of a mix sweep's
	// seed range (shard Index of Of); Compile lowers only that slice, and
	// the shard identity folds into ResumeKey so shard checkpoints cannot
	// cross-resume. Shards of the same sweep merge with exp.MergeShards.
	Shard *Shard `json:"shard,omitempty"`
}

// Shard identifies one slice of a sharded mix sweep: shards partition
// faults.seeds into Of contiguous subranges (sizes differing by at most
// one, earlier shards taking the remainder), and shard Index runs the
// Index-th of them. Valid only for KindMix.
type Shard struct {
	// Index is the 1-based shard number, 1..Of.
	Index int `json:"index"`
	// Of is the total shard count the sweep is split into.
	Of int `json:"of"`
}

// Workload describes what the simulated machine runs.
type Workload struct {
	// Kind selects the application: nbody, bursty, or mix.
	Kind string `json:"kind"`
	// Copies is the multiprogramming level for nbody: that many copies of
	// the application share one machine (Table 5 runs 2). 0 means 1.
	Copies int `json:"copies,omitempty"`
	// MemoryPct is the nbody memory axis: one job per value, each giving
	// the application that percentage of its working set in memory
	// (Figure 2's x-axis). Empty means {100}.
	MemoryPct []float64 `json:"memory_pct,omitempty"`
	// Baseline, for nbody, additionally measures the sequential
	// implementation so results can be reported as speedups (Figure 1,
	// Table 5).
	Baseline bool `json:"baseline,omitempty"`
	// Nbody overrides the calibrated problem shape (smoke tests, custom
	// scenarios). Nil keeps the paper's configuration.
	Nbody *NbodyOverrides `json:"nbody,omitempty"`
}

// NbodyOverrides overrides the calibrated N-body problem shape; zero fields
// keep the default.
type NbodyOverrides struct {
	N     int   `json:"n,omitempty"`     // bodies
	Steps int   `json:"steps,omitempty"` // timesteps
	Seed  int64 `json:"seed,omitempty"`  // body-placement seed
}

// Machine describes the simulated hardware.
type Machine struct {
	// CPUs is the processor count, 1..64. For KindMix, 0 (the canonical
	// sweep) draws 2..5 per seed from the seed's own RNG.
	CPUs int `json:"cpus"`
	// Costs selects the primitive cost table: default or tuned.
	// Empty means default.
	Costs string `json:"costs,omitempty"`
	// DiskLatencyMs overrides the disk service latency (the paper's 50 ms
	// cache-miss block). 0 keeps the cost table's value.
	DiskLatencyMs float64 `json:"disk_latency_ms,omitempty"`
}

// Binding describes how threads bind to processors: which thread systems
// run, and at what parallelism.
type Binding struct {
	// Systems lists the thread systems to run, one series per entry:
	// topaz, orig-ft, new-ft. Required for nbody and bursty; must be empty
	// for mix (the chaos workload is defined on scheduler activations).
	Systems []string `json:"systems,omitempty"`
	// Procs is the application-parallelism axis: one job per value per
	// system (Figure 1's x-axis). Empty means {machine.cpus}.
	Procs []int `json:"procs,omitempty"`
	// Policy is the processor-allocation-policy axis for new-ft: space
	// and/or fcfs (§4.1 ablation). Empty means {space}.
	Policy []string `json:"policy,omitempty"`
	// HysteresisUs is the idle-hysteresis axis for the bursty workload
	// (§4.2 ablation), in microseconds; one job per value. Required for
	// bursty, absent otherwise.
	HysteresisUs []float64 `json:"hysteresis_us,omitempty"`
}

// Faults is the chaos schedule for KindMix: which seeds sweep, how long
// each storm rages, and whether a deliberately broken kernel runs under
// the auditor.
type Faults struct {
	// FirstSeed is the first seed of the sweep (seeds are
	// FirstSeed..FirstSeed+Seeds-1).
	FirstSeed int64 `json:"first_seed"`
	// Seeds is the sweep width; each seed is one job.
	Seeds int64 `json:"seeds"`
	// StormMs is the storm phase length in virtual milliseconds; 0 means
	// the canonical 20000.
	StormMs int `json:"storm_ms,omitempty"`
	// DrainMs is the post-storm drain in virtual milliseconds; 0 means the
	// canonical 5000.
	DrainMs int `json:"drain_ms,omitempty"`
	// Ablate runs each seed against a deliberately broken kernel (nogrant
	// or dropevent) — the auditor-has-teeth demonstration. Ablated runs
	// execute once (no replay check) and are expected to fail.
	Ablate string `json:"ablate,omitempty"`
	// Replay controls the replay-divergence check (each seed re-run and
	// its fingerprint compared): "full" (or empty — the canonical default)
	// replays every seed, "sample:N" replays only seeds divisible by N,
	// "off" replays none. The fleet fingerprint folds only the first run,
	// so sampling moves no fingerprint — only how many seeds would catch a
	// nondeterminism leak. The replay decision is a pure function of the
	// seed, so shards and resumed sweeps sample identically.
	Replay string `json:"replay,omitempty"`
}

// Limits bounds a run.
type Limits struct {
	// RunLimitMs bounds any single application run in virtual
	// milliseconds; 0 means the canonical 30 minutes.
	RunLimitMs int64 `json:"run_limit_ms,omitempty"`
	// Workers is the fleet pool width; 0 means auto (one per host CPU).
	// Results are byte-identical at any width; this only tunes wall-clock.
	Workers int `json:"workers,omitempty"`
}

// --- effective-value helpers (defaults without mutating the Spec, so a
// parsed spec round-trips byte-identically) ---

// EffCopies returns the effective multiprogramming level.
func (w Workload) EffCopies() int {
	if w.Copies == 0 {
		return 1
	}
	return w.Copies
}

// EffMemoryPct returns the effective memory axis.
func (w Workload) EffMemoryPct() []float64 {
	if len(w.MemoryPct) == 0 {
		return []float64{100}
	}
	return w.MemoryPct
}

// EffCosts returns the effective cost profile name.
func (m Machine) EffCosts() string {
	if m.Costs == "" {
		return CostsDefault
	}
	return m.Costs
}

// EffProcs returns the effective parallelism axis for a machine with cpus
// processors.
func (b Binding) EffProcs(cpus int) []int {
	if len(b.Procs) == 0 {
		return []int{cpus}
	}
	return b.Procs
}

// EffPolicy returns the effective allocation-policy axis.
func (b Binding) EffPolicy() []string {
	if len(b.Policy) == 0 {
		return []string{PolicySpace}
	}
	return b.Policy
}

// ParseReplay parses a Faults.Replay value into the replay period: 1 means
// every seed replays (full — also the default for the empty string), 0
// means none (off), and N > 1 means only seeds divisible by N replay
// (sample:N). Unknown values are an error (Validate reports them by path).
func ParseReplay(mode string) (every int64, err error) {
	switch mode {
	case "", ReplayFull:
		return 1, nil
	case ReplayOff:
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(mode, "sample:"); ok {
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("bad sample period %q (want sample:N with N >= 1)", rest)
		}
		return n, nil
	}
	return 0, fmt.Errorf("unknown replay mode %q (want full, off, or sample:N)", mode)
}

// EffReplayEvery returns the effective replay period (see ParseReplay); an
// invalid mode falls back to full — Validate rejects it before a run.
func (f *Faults) EffReplayEvery() int64 {
	if f == nil {
		return 1
	}
	every, err := ParseReplay(f.Replay)
	if err != nil {
		return 1
	}
	return every
}
