package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"schedact/internal/core"
	"schedact/internal/fleet"
	"schedact/internal/kernel"
	"schedact/internal/machine"
	"schedact/internal/scenario"
	"schedact/internal/sim"
	"schedact/internal/uthread"

	"schedact/internal/apps/nbody"
)

// This file is the scenario runner: the one execution path that interprets
// a compiled scenario.Program on the fleet. Every canonical battery
// (Figure 1/2, Table 5, the ablation grid, the chaos sweep) is an assembly
// over RunProgram on its built-in spec — there is no second, hand-written
// sweep loop — so a custom spec (saexp -scenario) runs through exactly the
// machinery the pinned fingerprints and golden traces certify.

// RunOptions parameterizes one program execution.
type RunOptions struct {
	// Workers is the fleet pool width; 0 defers to the spec's
	// limits.workers, then to auto (one per CPU). Results are
	// byte-identical at any width.
	Workers int
}

// AppOutcome is one application job's measurement: the execution time of
// each multiprogrammed copy, plus the kernel's re-allocation and upcall
// counts for the bursty workload.
type AppOutcome struct {
	Els     []sim.Duration
	Takes   uint64
	Upcalls uint64
}

// ProgramResult is one executed program: outcomes in job order (application
// programs), the streaming aggregate (chaos programs), the sequential
// baseline when the spec asked for one, and the rolling fleet fingerprint
// over all results — deterministic and width-independent.
type ProgramResult struct {
	Prog        *scenario.Program
	Baseline    sim.Duration    // sequential time (spec workload.baseline)
	Outcomes    []AppOutcome    // application programs, in job order
	Sweep       *SweepAggregate // chaos programs
	Fingerprint uint64
}

// RunSpec compiles and runs a spec. See RunProgram.
func RunSpec(w io.Writer, sp scenario.Spec, opt RunOptions) (*ProgramResult, error) {
	prog, err := scenario.Compile(sp)
	if err != nil {
		return nil, err
	}
	return RunProgram(w, prog, opt)
}

// RunProgram executes a compiled program on the fleet, streaming per-job
// lines to w (results fold in job order regardless of pool width). The
// error is always nil: Compile already validated the spec, and the
// signature matches RunSpec, whose error reports an invalid one.
func RunProgram(w io.Writer, prog *scenario.Program, opt RunOptions) (*ProgramResult, error) {
	if prog.Chaos() {
		return runChaosProgram(w, prog, opt), nil
	}
	return runAppProgram(w, prog, opt), nil
}

// resolveWorkers picks the fleet width: explicit option, then the spec's
// hint, then one worker per schedulable CPU.
func resolveWorkers(optWorkers int, sp scenario.Spec) int {
	if optWorkers > 0 {
		return optWorkers
	}
	if sp.Limits.Workers > 0 {
		return sp.Limits.Workers
	}
	return fleet.DefaultWorkers()
}

// runLimitFor returns the virtual-time bound for one run under the spec.
func runLimitFor(sp scenario.Spec) sim.Time {
	if ms := sp.Limits.RunLimitMs; ms > 0 {
		return sim.Time(sim.Duration(ms) * sim.Millisecond)
	}
	return RunLimit
}

// fnvFold streams vals into a rolling FNV-1a state (8 bytes per value,
// little-endian); 0 means "unstarted" and folds from the FNV offset basis.
func fnvFold(h uint64, vals ...uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// --- application programs ---

// foldOutcome streams one job's outcome into the rolling program
// fingerprint. Outcomes must arrive in job order (fleet.Run's emit
// contract), which makes the fingerprint independent of pool width.
func foldOutcome(h uint64, j scenario.Job, o AppOutcome) uint64 {
	h = fnvFold(h, uint64(j.Index), uint64(len(o.Els)))
	for _, el := range o.Els {
		h = fnvFold(h, uint64(el))
	}
	return fnvFold(h, o.Takes, o.Upcalls)
}

// runAppProgram fans the program's application jobs across the fleet, one
// private engine per run, warm coroutine pools per worker, results folded
// in job order.
func runAppProgram(w io.Writer, prog *scenario.Program, opt RunOptions) *ProgramResult {
	sp := prog.Spec
	workers := resolveWorkers(opt.Workers, sp)
	limit := runLimitFor(sp)
	pr := &ProgramResult{Prog: prog}
	if sp.Workload.Baseline {
		pr.Baseline = seqTime(nbodyConfigFor(sp, scenario.Job{MemPct: 100}), sp.Machine.CPUs, limit)
	}
	n := len(prog.Jobs)
	fprintf(w, "scenario %s: %d job(s) on %d worker(s)\n", sp.Name, n, workers)
	if n > 0 {
		pools := newWorkerPools(workers, n)
		defer pools.Close()
		fleet.Run(workers, n, func(job, worker int) AppOutcome {
			return runAppJob(pools.get(worker), sp, prog.Jobs[job], limit)
		}, func(res fleet.Result[AppOutcome]) {
			j := prog.Jobs[res.Job]
			pr.Outcomes = append(pr.Outcomes, res.Value)
			pr.Fingerprint = foldOutcome(pr.Fingerprint, j, res.Value)
			fprintf(w, "  %-28s w%-2d %s\n", j.Label, res.Worker, renderOutcome(pr.Baseline, res.Value))
		})
	}
	fprintf(w, "scenario %s: %d/%d job(s) done, program fingerprint %016x\n", sp.Name, len(pr.Outcomes), n, pr.Fingerprint)
	return pr
}

// renderOutcome formats one application outcome for the streamed job line.
func renderOutcome(baseline sim.Duration, o AppOutcome) string {
	if len(o.Els) == 0 {
		return fmt.Sprintf("takes=%d upcalls=%d", o.Takes, o.Upcalls)
	}
	parts := make([]string, len(o.Els))
	for i, el := range o.Els {
		parts[i] = fmt.Sprintf("%.2fs", el.Seconds())
	}
	s := strings.Join(parts, " ")
	if baseline > 0 {
		s += fmt.Sprintf("  speedup %.2f", float64(baseline)/float64(avgDuration(o.Els)))
	}
	return s
}

// avgDuration is the mean of els (integer division, matching the paper
// tables' averaging).
func avgDuration(els []sim.Duration) sim.Duration {
	var sum sim.Duration
	for _, el := range els {
		sum += el
	}
	return sum / sim.Duration(len(els))
}

// systemOf maps a spec system id to the harness system name.
func systemOf(id string) SystemName {
	switch id {
	case scenario.SysTopaz:
		return SysTopaz
	case scenario.SysOrigFT:
		return SysOrigFT
	case scenario.SysNewFT:
		return SysNewFT
	}
	panic("exp: unknown scenario system " + id)
}

// nbodyConfigFor builds one job's N-body configuration: the calibrated
// default, the spec's problem-shape overrides, and the job's memory point.
func nbodyConfigFor(sp scenario.Spec, job scenario.Job) nbody.Config {
	cfg := nbody.DefaultConfig()
	if nb := sp.Workload.Nbody; nb != nil {
		if nb.N > 0 {
			cfg.N = nb.N
		}
		if nb.Steps > 0 {
			cfg.Steps = nb.Steps
		}
		if nb.Seed != 0 {
			cfg.Seed = nb.Seed
		}
	}
	cfg.MemFraction = job.MemPct / 100
	return cfg
}

// costsFor returns the spec's cost table, or nil for the kernel default.
func costsFor(sp scenario.Spec) *machine.Costs {
	var c *machine.Costs
	if sp.Machine.EffCosts() == scenario.CostsTuned {
		c = machine.TunedCosts()
	}
	if sp.Machine.DiskLatencyMs > 0 {
		if c == nil {
			c = machine.DefaultCosts()
		}
		c.DiskLatency = sim.Ms(sp.Machine.DiskLatencyMs)
	}
	return c
}

// runAppJob executes one application job on a private engine and returns
// its outcome.
func runAppJob(pool *sim.Pool, sp scenario.Spec, job scenario.Job, limit sim.Time) AppOutcome {
	if sp.Workload.Kind == scenario.KindBursty {
		return runBurstyJob(pool, sp, job, limit)
	}
	cfg := nbodyConfigFor(sp, job)
	costs := costsFor(sp)
	if job.Copies == 1 && costs == nil && job.Policy == scenario.PolicySpace &&
		sp.Machine.CPUs == MachineCPUs {
		// The uniprogrammed default-machine cell: the launcher the traced
		// smoke runs and warm-golden tests also drive. launchOnEngine
		// hardcodes the MachineCPUs machine, so any other machine shape must
		// take the general path below.
		return AppOutcome{Els: []sim.Duration{runOne(pool, systemOf(job.System), cfg, job.Procs, limit)}}
	}
	return runCellJob(pool, sp, job, cfg, costs, limit)
}

// runCellJob is the general application cell: Copies instances of the
// application multiprogrammed on one machine under the job's system,
// allocation policy, and the spec's cost table. One copy on the default
// table is exactly launchOnEngine's construction; the multiprogrammed cells
// are Table 5's and the allocator ablation's.
func runCellJob(pool *sim.Pool, sp scenario.Spec, job scenario.Job, cfg nbody.Config, costs *machine.Costs, limit sim.Time) AppOutcome {
	eng := pool.NewEngine(engOpts(job.Label)...)
	defer eng.Close()
	name := func(i int) string {
		if job.Copies == 1 {
			return "nbody"
		}
		return fmt.Sprintf("nbody%d", i)
	}
	runs := make([]*nbody.Run, job.Copies)
	switch systemOf(job.System) {
	case SysTopaz:
		k := kernel.New(eng, kernel.Config{CPUs: sp.Machine.CPUs, Costs: costs})
		StartDaemonNative(k)
		for i := range runs {
			spc := k.NewSpace(name(i), false)
			spc.CPUCap = job.Procs
			runs[i] = nbody.Launch(nbody.KThreadSystem{K: k, SP: spc}, cfg)
		}
	case SysOrigFT:
		k := kernel.New(eng, kernel.Config{CPUs: sp.Machine.CPUs, Costs: costs})
		StartDaemonNative(k)
		for i := range runs {
			s := uthread.OnKernelThreads(k, k.NewSpace(name(i), false), job.Procs, uthread.Options{})
			runs[i] = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
			s.Start()
		}
	case SysNewFT:
		k := core.New(eng, core.Config{CPUs: sp.Machine.CPUs, Costs: costs})
		if job.Policy == scenario.PolicyFCFS {
			k.SetPolicy(core.FirstComeFCFS)
		}
		StartDaemonSA(k)
		for i := range runs {
			s := uthread.OnActivations(k, name(i), 0, job.Procs, uthread.Options{})
			runs[i] = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
			s.Start()
		}
	}
	eng.RunUntil(limit)
	out := AppOutcome{Els: make([]sim.Duration, job.Copies)}
	for i, r := range runs {
		if !r.Done {
			panic(fmt.Sprintf("exp: %s copy %d did not finish within the run limit", job.Label, i))
		}
		out.Els[i] = r.Elapsed()
	}
	return out
}

// runBurstyJob is the §4.2 hysteresis cell: a bursty compute/IO application
// sharing the machine with a processor-hungry competitor, the idle-spin
// hysteresis set by the job. The measurement is re-allocation churn (kernel
// takes and upcalls), not elapsed time.
func runBurstyJob(pool *sim.Pool, sp scenario.Spec, job scenario.Job, limit sim.Time) AppOutcome {
	eng := pool.NewEngine(engOpts(job.Label)...)
	defer eng.Close()
	costs := costsFor(sp)
	if costs == nil {
		costs = machine.DefaultCosts()
	}
	k := core.New(eng, core.Config{CPUs: sp.Machine.CPUs, Costs: costs})
	hungry := uthread.OnActivations(k, "hungry", 0, sp.Machine.CPUs, uthread.Options{})
	for i := 0; i < sp.Machine.CPUs; i++ {
		hungry.Spawn("spin", func(t *uthread.Thread) { t.Exec(3 * sim.Second) })
	}
	hungry.Start()
	bursty := uthread.OnActivations(k, "bursty", 0, 1, uthread.Options{Hysteresis: sim.Us(job.HysteresisUs)})
	done := false
	bursty.Spawn("burst", func(t *uthread.Thread) {
		for i := 0; i < 100; i++ {
			t.Exec(sim.Ms(5))
			t.BlockIO()
		}
		done = true
	})
	bursty.Start()
	for !done && eng.Now() < limit {
		eng.RunFor(10 * sim.Millisecond)
	}
	if !done {
		panic(fmt.Sprintf("exp: %s did not finish within the run limit", job.Label))
	}
	return AppOutcome{Takes: k.Stats.Takes, Upcalls: k.Stats.Upcalls}
}

// mustProgram compiles a canonical spec (the built-ins are valid by
// construction and by test).
func mustProgram(sp scenario.Spec) *scenario.Program {
	prog, err := scenario.Compile(sp)
	if err != nil {
		panic("exp: canonical spec " + sp.Name + ": " + err.Error())
	}
	return prog
}

// runCanonical runs a canonical spec silently at the battery pool width.
func runCanonical(sp scenario.Spec) *ProgramResult {
	pr, err := RunProgram(io.Discard, mustProgram(sp), RunOptions{Workers: Workers})
	if err != nil {
		panic("exp: canonical spec " + sp.Name + ": " + err.Error())
	}
	return pr
}

// assembleSeries groups an application program's outcomes into one figure
// series per system, in job order, point Y values computed by y.
func assembleSeries(pr *ProgramResult, x func(scenario.Job) float64, y func(scenario.Job, AppOutcome) float64) []Series {
	var out []Series
	for i, j := range pr.Prog.Jobs {
		sys := systemOf(j.System)
		if len(out) == 0 || out[len(out)-1].System != sys {
			out = append(out, Series{System: sys})
		}
		last := &out[len(out)-1]
		last.Points = append(last.Points, Point{X: x(j), Y: y(j, pr.Outcomes[i])})
	}
	return out
}

// --- chaos programs ---

// ChaosSweep is the chaos battery: the canonical chaos spec for seeds
// first..first+n-1, compiled and run through the scenario pipeline on a pool
// of workers (0 = one per CPU). It returns the number of failed seeds. Each
// sweep worker owns one warm RunContext recycled across all its seeds, and
// results stream back in seed order — one line per seed, full violation
// reports for failures, and a bounded-memory aggregate (rolling fleet
// fingerprint, failure attribution by seed, merged latency histograms).
//
// Each seed still executes on a private engine/trace/injector stack (one
// per worker, recycled), so per-seed fingerprints are byte-identical to a
// sequential sweep and to cold one-shot runs; only wall-clock and the
// worker column vary with the pool.
func ChaosSweep(w io.Writer, first, n int64, workers int) (failed int) {
	prog := mustProgram(scenario.ChaosSpec(first, n))
	return int(runChaosProgram(w, prog, RunOptions{Workers: workers}).Sweep.Failed)
}

// runChaosProgram drives a compiled chaos program: one warm RunContext per
// worker, results folded in seed order.
func runChaosProgram(w io.Writer, prog *scenario.Program, opt RunOptions) *ProgramResult {
	sp := prog.Spec
	f := sp.Faults
	first, n := f.FirstSeed, f.Seeds
	workers := resolveWorkers(opt.Workers, sp)
	mutate := chaosMutator(f.Ablate)
	replayEvery := f.EffReplayEvery()
	ag := &SweepAggregate{First: first}
	fprintf(w, "chaos sweep: seeds %d..%d on %d worker(s), warm run contexts (auditor on, %s)\n",
		first, first+n-1, workers, replayMode(replayEvery))
	start := time.Now()
	// One warm RunContext per worker: the slot is created by — and stays
	// confined to — the worker goroutine that owns it, so successive seeds
	// recycle the whole engine/kernel/chaos stack with no cross-worker
	// sharing. Fleet clamps the pool width to the job count, so unused
	// slots just stay nil.
	ctxs := make([]*RunContext, workers)
	defer func() {
		for _, rc := range ctxs {
			rc.Close()
		}
	}()
	fleet.Run(workers, int(n), func(job, worker int) SeedReport {
		if ctxs[worker] == nil {
			ctxs[worker] = newRunContextFor(sp)
		}
		seed := first + int64(job)
		if mutate != nil {
			return ctxs[worker].RunSeedReportMutated(seed, mutate)
		}
		return ctxs[worker].RunSeedReportReplay(seed, replaySeed(seed, replayEvery))
	}, func(res fleet.Result[SeedReport]) {
		rep := res.Value
		status := "ok"
		if !rep.OK() {
			status = "FAIL"
		}
		fprintf(w, "  seed %3d  w%-2d fp %v  preempts %4d  threads %2d/%2d  t=%8.0fms  %s\n",
			rep.Seed, res.Worker, rep.Fingerprint, rep.Preempts, rep.Finished, rep.Total, rep.End.Ms(), status)
		if rep.Fingerprint != rep.Replay {
			fprintf(w, "       nondeterministic: replay fingerprint %v\n", rep.Replay)
		}
		for _, v := range rep.Violations {
			fprintf(w, "%v", v.Error())
		}
		ag.fold(&rep)
	})
	reportSweep(w, ag, time.Since(start))
	return &ProgramResult{Prog: prog, Sweep: ag, Fingerprint: ag.Fleet}
}

// replaySeed decides whether one seed gets the replay-divergence second
// run under the spec's replay period (see scenario.ParseReplay): a pure
// function of the seed, so every fleet width samples identically.
func replaySeed(seed, every int64) bool {
	switch {
	case every == 1:
		return true
	case every <= 0:
		return false
	}
	return seed%every == 0
}

// replayMode renders the replay period for the sweep header line.
func replayMode(every int64) string {
	switch {
	case every == 1:
		return "each seed run twice"
	case every <= 0:
		return "replay off"
	}
	return fmt.Sprintf("replay sampled on seeds divisible by %d", every)
}

// newRunContextFor builds a warm chaos context honoring the spec's machine
// and storm overrides; the canonical spec leaves them zero, keeping the
// pinned seeded shape (CPUs drawn 2..5, 20s storm, 5s drain).
func newRunContextFor(sp scenario.Spec) *RunContext {
	rc := NewRunContext()
	rc.CPUs = sp.Machine.CPUs
	if sp.Faults.StormMs > 0 {
		rc.Storm = sp.Faults.StormMs
	}
	if sp.Faults.DrainMs > 0 {
		rc.Drain = sp.Faults.DrainMs
	}
	return rc
}

// chaosMutator maps a spec ablation id to its kernel mutation.
func chaosMutator(ablate string) func(*core.Kernel) {
	switch ablate {
	case scenario.AblateNoGrant:
		return func(k *core.Kernel) { k.AblateNoGrant = true }
	case scenario.AblateDropEvent:
		return func(k *core.Kernel) { k.AblateDropEvent = true }
	}
	return nil
}

// reportSweep renders the sweep tail: throughput, the rolling fleet
// fingerprint, merged latency quantiles, and failures attributed by seed.
func reportSweep(w io.Writer, ag *SweepAggregate, elapsed time.Duration) {
	if elapsed > 0 {
		fprintf(w, "chaos sweep: %d/%d seeds done (%d run in %.2fs, %.1f seeds/sec); fleet fingerprint %016x\n",
			ag.Done, ag.Done, ag.Done, elapsed.Seconds(), float64(ag.Done)/elapsed.Seconds(), ag.Fleet)
	} else {
		fprintf(w, "chaos sweep: %d/%d seeds done; fleet fingerprint %016x\n", ag.Done, ag.Done, ag.Fleet)
	}
	if ag.UpcallDispatch.N > 0 {
		fprintf(w, "  latency (merged over first runs): upcall-dispatch p50=%dns p99=%dns  ready-wait p50=%dns p99=%dns  block-unblock p50=%dns p99=%dns\n",
			ag.UpcallDispatch.Quantile(0.50), ag.UpcallDispatch.Quantile(0.99),
			ag.ReadyWait.Quantile(0.50), ag.ReadyWait.Quantile(0.99),
			ag.BlockUnblock.Quantile(0.50), ag.BlockUnblock.Quantile(0.99))
	}
	if ag.Failed == 0 {
		fprintf(w, "chaos sweep: all %d seeds passed\n", ag.Done)
		return
	}
	fprintf(w, "chaos sweep: %d of %d seeds FAILED — failing seeds: %v", ag.Failed, ag.Done, ag.Seeds)
	if int64(len(ag.Seeds)) < ag.Failed {
		fprintf(w, " (first %d shown)", len(ag.Seeds))
	}
	fprintf(w, "\n")
}
