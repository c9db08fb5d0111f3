package exp

import (
	"fmt"
	"math/rand"

	"schedact/internal/chaos"
	"schedact/internal/core"
	"schedact/internal/sim"
	"schedact/internal/stats"
	"schedact/internal/trace"
	"schedact/internal/uthread"
)

// Workload tracks a randomized mixed workload's completion.
type Workload struct {
	Total    int
	finished *int
}

// Finished reports how many threads have run to completion.
func (w *Workload) Finished() int { return *w.finished }

// Done reports whether every thread finished.
func (w *Workload) Done() bool { return *w.finished >= w.Total }

// BuildMixedWorkload constructs the soak mixture on a scheduler-activation
// kernel: several address spaces of threads doing compute bursts, mutex and
// spin-lock critical sections, blocking I/O, page touches, yields, and
// cond-variable fork/join handshakes — everything the paper's kernel
// interface has to survive, drawn from rng (so the shape is a pure function
// of the caller's seed). Used by both the soak test and the chaos sweep.
func BuildMixedWorkload(k *core.Kernel, vm *core.VM, rng *rand.Rand) *Workload {
	finished := new(int)
	total := 0
	nspaces := 1 + rng.Intn(3)
	for si := 0; si < nspaces; si++ {
		s := uthread.OnActivations(k, fmt.Sprintf("soak%d", si), rng.Intn(2), k.M.NumCPUs(), uthread.Options{})
		mu := s.NewMutex()
		cond := s.NewCond()
		spin := &uthread.SpinLock{}
		nthreads := 3 + rng.Intn(8)
		total += nthreads
		for ti := 0; ti < nthreads; ti++ {
			plan := make([]int, 4+rng.Intn(8))
			for i := range plan {
				plan[i] = rng.Intn(7)
			}
			prio := rng.Intn(3)
			work := sim.Duration(rng.Intn(2000)+100) * sim.Microsecond
			page := rng.Intn(6)
			s.SpawnPrio(fmt.Sprintf("t%d.%d", si, ti), prio, func(th *uthread.Thread) {
				for _, op := range plan {
					switch op {
					case 0:
						th.Exec(work)
					case 1:
						mu.Lock(th)
						th.Exec(work / 4)
						mu.Unlock(th)
					case 2:
						spin.Acquire(th)
						th.Exec(work / 8)
						spin.Release(th)
					case 3:
						th.BlockIO()
					case 4:
						th.TouchPage(vm, page)
					case 5:
						th.Yield()
					case 6:
						// Cond handshake with a forked signaller, Mesa-style:
						// the flag is set and broadcast under the mutex, so a
						// wake-up can neither land before the waiter blocks
						// nor be consumed by another handshake's waiter (the
						// cond is shared, so Signal could wake the wrong
						// thread and strand this one).
						done := false
						c := th.Fork("signaller", func(c *uthread.Thread) {
							c.Exec(work / 2)
							mu.Lock(c)
							done = true
							cond.Broadcast(c)
							mu.Unlock(c)
						})
						mu.Lock(th)
						for !done {
							cond.Wait(th, mu)
						}
						mu.Unlock(th)
						th.Join(c)
					}
				}
				*finished++
			})
		}
		s.Start()
	}
	return &Workload{Total: total, finished: finished}
}

// ChaosResult is one seed's verdict from the chaos sweep.
type ChaosResult struct {
	Seed        int64
	Fingerprint chaos.Fingerprint
	Replay      chaos.Fingerprint // second run of the same seed
	Violations  []chaos.Violation
	Finished    int
	Total       int
	End         sim.Time // virtual time when the run stopped
	Preempts    uint64   // forced preemptions actually landed
}

// OK reports whether the seed passed: no invariant violations, every thread
// finished, and the replay reproduced the identical fingerprint.
func (r ChaosResult) OK() bool {
	return len(r.Violations) == 0 && r.Finished == r.Total && r.Fingerprint == r.Replay
}

// chaosStepLimit bounds one chaos run: storm phase, then a quiesced drain.
const (
	chaosStormSteps = 20000 // milliseconds of virtual time under injection
	chaosDrainSteps = 5000  // milliseconds to drain after Stop
)

// chaosLabel names one seed's run engine.
func chaosLabel(seed int64) string { return fmt.Sprintf("chaos seed %d", seed) }

// chaosOnce executes one audited, fault-injected mixed workload for seed on
// a fresh engine, closing it before returning (the fingerprint finalizes as
// a close hook). pool, when non-nil, supplies warm coroutine goroutines
// (sim.Pool); it must be owned by the calling worker.
func chaosOnce(pool *sim.Pool, seed int64, mutate func(*core.Kernel)) (fp chaos.Fingerprint, r ChaosResult) {
	eng := pool.NewEngine(sim.WithLabel(chaosLabel(seed)))
	rng := rand.New(rand.NewSource(seed))
	defer eng.Close()
	// Every chaos consumer — auditor, fingerprinter, latency deriver —
	// hangs off Observe (the auditor keeps its own violation window), so
	// the log retains nothing: no consumer reads it after the run, and the
	// stream mode skips the ring append on the hottest per-record path.
	tr := trace.NewStream()
	k := core.New(eng, core.Config{CPUs: 2 + rng.Intn(4), Trace: tr})
	if mutate != nil {
		mutate(k)
	}
	StartDaemonSA(k)
	vm := k.NewVM()
	aud := chaos.Attach(k, tr, 250*sim.Microsecond)
	fpr := chaos.NewFingerprinter(tr)
	fpr.AttachClose(eng)
	// Latency histograms ride the same stream; their registered metrics fold
	// into the fingerprint as the engine closes, so they are part of the
	// replay check.
	trace.NewLatencies(tr, eng.Metrics())
	inj := chaos.New(eng, chaos.NewPlan(seed))
	inj.InstrumentSA(k)
	inj.InstrumentVM(vm)
	wl := BuildMixedWorkload(k, vm, rng)

	for step := 0; step < chaosStormSteps && !wl.Done() && len(aud.Violations) == 0; step++ {
		eng.RunFor(sim.Millisecond)
	}
	// Quiesce injection and drain: a shortfall after this means a thread was
	// genuinely lost, not merely still dodging the storm.
	inj.Stop()
	for step := 0; step < chaosDrainSteps && !wl.Done() && len(aud.Violations) == 0; step++ {
		eng.RunFor(sim.Millisecond)
	}
	aud.Check()
	r = ChaosResult{
		Seed:       seed,
		Violations: aud.Violations,
		Finished:   wl.Finished(),
		Total:      wl.Total,
		End:        eng.Now(),
		Preempts:   inj.Stats.Preempts,
	}
	eng.Close() // idempotent with the defer; fires the fingerprint close hook
	return fpr.Value(), r
}

// RunChaosSeed runs one seed twice — identical code path both times — and
// folds the replay's fingerprint into the result, so a nondeterminism leak
// fails the seed even when every invariant held.
func RunChaosSeed(seed int64) ChaosResult { return runChaosSeedIn(nil, seed) }

// runChaosSeedIn is RunChaosSeed drawing coroutine goroutines from pool
// (nil = unpooled). Both the run and its replay share the pool, so the
// replay check also exercises warm-goroutine reuse.
func runChaosSeedIn(pool *sim.Pool, seed int64) ChaosResult {
	fpA, r := chaosOnce(pool, seed, nil)
	fpB, _ := chaosOnce(pool, seed, nil)
	r.Fingerprint = fpA
	r.Replay = fpB
	return r
}

// RunChaosSeedAblated is RunChaosSeed against a deliberately broken kernel
// (single run, no replay) — the auditor-has-teeth demonstration.
func RunChaosSeedAblated(seed int64, mutate func(*core.Kernel)) ChaosResult {
	fp, r := chaosOnce(nil, seed, mutate)
	r.Fingerprint = fp
	r.Replay = fp
	return r
}

// RunContext is a warm, reusable chaos-run stack: one engine (with its
// coroutine-goroutine pool), trace log, kernel, pager, auditor,
// fingerprinter, latency deriver, and injector, all constructed once and
// recycled through the Reset seam for run after run. A fleet worker owns one
// RunContext and drives thousands of seeds through it with no steady-state
// construction: every layer returns to its birth state in place, and the
// long-lived trace observers and metric registrations carry over.
//
// Equivalence contract: a warm run's fingerprint is byte-identical to a
// cold chaosOnce run of the same seed — RunSeed replicates the cold path's
// construction order exactly, so every event sequence number, trace record,
// and counter matches (pinned by TestWarmContextMatchesCold and the golden
// warm-engine tests).
type RunContext struct {
	pool *sim.Pool
	eng  sim.Engine
	rng  *rand.Rand
	tr   *trace.Log
	k    *core.Kernel
	vm   *core.VM
	aud  *chaos.Auditor
	fpr  *chaos.Fingerprinter
	lat  *trace.Latencies
	inj  *chaos.Injector

	// Scenario overrides (set between runs; zero keeps the canonical pinned
	// shape). CPUs fixes the machine size instead of drawing 2..5 from the
	// seed RNG; Storm and Drain resize the phases in virtual milliseconds.
	CPUs  int
	Storm int
	Drain int

	// mark is the metric registry's high-water cursor after construction;
	// runOnce truncates back to it so per-run registrations (per-space
	// uthread counters) never pile up dedup-suffixed duplicates across
	// recycles — a cold engine sees each name exactly once, so a warm one
	// must too or the fingerprint's metric fold diverges.
	mark int
}

// NewRunContext builds a warm run stack. The construction order mirrors the
// registration order of a cold run (engine, machine+kernel, auditor,
// fingerprinter, latency deriver, injector), so the metric names — and with
// them the fingerprint's final fold — are identical to a cold engine's.
func NewRunContext() *RunContext {
	pool := sim.NewPool()
	rc := &RunContext{
		pool: pool,
		eng:  pool.NewEngine(sim.WithLabel("chaos warm context")),
		rng:  rand.New(rand.NewSource(0)),
		tr:   trace.NewStream(), // observer-only, like the cold path

		Storm: chaosStormSteps,
		Drain: chaosDrainSteps,
	}
	rc.k = core.New(rc.eng, core.Config{CPUs: 2, Trace: rc.tr})
	rc.vm = rc.k.NewVM()
	rc.aud = chaos.Attach(rc.k, rc.tr, 250*sim.Microsecond)
	rc.fpr = chaos.NewFingerprinter(rc.tr)
	rc.lat = trace.NewLatencies(rc.tr, rc.eng.Metrics())
	rc.inj = chaos.New(rc.eng, chaos.Plan{})
	rc.mark = rc.eng.Metrics().Mark()
	return rc
}

// Close tears the warm stack down: the engine closes (unwinding any
// coroutines left from the last run) and the goroutine pool retires.
func (rc *RunContext) Close() {
	if rc == nil {
		return
	}
	rc.eng.Close()
	rc.pool.Close()
}

// runOnce executes one audited, fault-injected mixed workload for seed on
// the warm stack. It is chaosOnce with construction replaced by Reset,
// statement for statement — every call that schedules an event or draws
// from the seed RNG happens in the cold order, so the timeline is
// byte-identical. The engine stays open; the fingerprint is finalized
// directly (a cold run folds it in a close hook at the same point: after
// the final audit, before any coroutine is unwound).
func (rc *RunContext) runOnce(seed int64, mutate func(*core.Kernel)) (chaos.Fingerprint, ChaosResult) {
	rc.eng.Reset(sim.WithLabel(chaosLabel(seed)))
	rc.eng.Metrics().Truncate(rc.mark)
	rc.tr.Reset()
	rc.rng.Seed(seed)
	cpus := rc.CPUs
	if cpus == 0 {
		cpus = 2 + rc.rng.Intn(4) // the canonical seeded draw
	}
	rc.k.Reset(core.Config{CPUs: cpus, Trace: rc.tr})
	if mutate != nil {
		mutate(rc.k)
	}
	StartDaemonSA(rc.k)
	rc.vm.Reset()
	rc.aud.Reset()
	rc.fpr.Reset()
	rc.lat.Reset()
	rc.inj.Reset(chaos.NewPlan(seed))
	rc.inj.InstrumentSA(rc.k)
	rc.inj.InstrumentVM(rc.vm)
	wl := BuildMixedWorkload(rc.k, rc.vm, rc.rng)

	eng, aud := rc.eng, rc.aud
	for step := 0; step < rc.Storm && !wl.Done() && len(aud.Violations) == 0; step++ {
		eng.RunFor(sim.Millisecond)
	}
	rc.inj.Stop()
	for step := 0; step < rc.Drain && !wl.Done() && len(aud.Violations) == 0; step++ {
		eng.RunFor(sim.Millisecond)
	}
	aud.Check()
	r := ChaosResult{
		Seed:     seed,
		Finished: wl.Finished(),
		Total:    wl.Total,
		End:      eng.Now(),
		Preempts: rc.inj.Stats.Preempts,
	}
	// The auditor is recycled next run, so failures must be copied out —
	// a cold run hands over its one-shot auditor's slice instead.
	if len(aud.Violations) > 0 {
		r.Violations = append([]chaos.Violation(nil), aud.Violations...)
	}
	return rc.fpr.Finish(eng), r
}

// RunSeed runs one seed twice on the warm stack — run and replay, exactly
// like RunChaosSeed — and folds both fingerprints into the result.
func (rc *RunContext) RunSeed(seed int64) ChaosResult {
	rep := rc.RunSeedReport(seed)
	return rep.ChaosResult
}

// SeedReport is one seed's sweep contribution: the verdict plus the first
// run's latency histograms, copied out of the warm context so a streaming
// aggregator can merge them after the context has moved on to other seeds.
type SeedReport struct {
	ChaosResult
	UpcallDispatch stats.Histogram
	ReadyWait      stats.Histogram
	BlockUnblock   stats.Histogram
}

// RunSeedReport is RunSeed capturing the first (canonical) run's latency
// histograms alongside the verdict.
func (rc *RunContext) RunSeedReport(seed int64) SeedReport {
	return rc.RunSeedReportReplay(seed, true)
}

// RunSeedReportReplay is RunSeedReport with the replay-divergence check
// optional: with replay false the seed runs once and its fingerprint is
// copied into Replay, so OK() judges only invariants and completion. The
// fleet fingerprint and the histograms come from the first run either way,
// so sampling replay (faults.replay) moves no aggregate — only how many
// seeds would catch a nondeterminism leak.
func (rc *RunContext) RunSeedReportReplay(seed int64, replay bool) SeedReport {
	fpA, r := rc.runOnce(seed, nil)
	rep := SeedReport{
		UpcallDispatch: rc.lat.UpcallDispatch,
		ReadyWait:      rc.lat.ReadyWait,
		BlockUnblock:   rc.lat.BlockUnblock,
	}
	r.Fingerprint = fpA
	r.Replay = fpA
	if replay {
		r.Replay, _ = rc.runOnce(seed, nil)
	}
	rep.ChaosResult = r
	return rep
}

// RunSeedReportMutated is RunSeedReport against a mutated (deliberately
// broken) kernel: a single run, no replay check — the fingerprint is copied
// into Replay so OK() judges only invariants and completion. The scenario
// layer's ablated chaos sweeps (faults.ablate) run through this.
func (rc *RunContext) RunSeedReportMutated(seed int64, mutate func(*core.Kernel)) SeedReport {
	fp, r := rc.runOnce(seed, mutate)
	r.Fingerprint = fp
	r.Replay = fp
	return SeedReport{
		ChaosResult:    r,
		UpcallDispatch: rc.lat.UpcallDispatch,
		ReadyWait:      rc.lat.ReadyWait,
		BlockUnblock:   rc.lat.BlockUnblock,
	}
}

// maxFailedSeeds bounds the failed-seed list a sweep aggregate retains;
// the failure count is exact regardless.
const maxFailedSeeds = 64

// SweepAggregate is the streaming sweep state: everything the sweep reports
// is folded here in seed order with bounded memory — a rolling fleet
// fingerprint over the per-seed fingerprints, exact failure attribution by
// seed (bounded list), and merged cross-run latency histograms.
type SweepAggregate struct {
	First  int64
	Done   int64   // seeds completed: first..first+Done-1
	Failed int64   // exact failure count
	Seeds  []int64 // first maxFailedSeeds failing seeds
	Fleet  uint64  // rolling FNV-1a over (seed, fingerprint)
	Runs   uint64  // workload threads across first runs
	// Merged latency distributions from each seed's first run.
	UpcallDispatch stats.Histogram
	ReadyWait      stats.Histogram
	BlockUnblock   stats.Histogram
}

// fold streams one seed's report into the aggregate. Reports must arrive in
// seed order (fleet.Run's emit contract) so the rolling fingerprint is
// well-defined.
func (ag *SweepAggregate) fold(rep *SeedReport) {
	ag.Done++
	if !rep.OK() {
		ag.Failed++
		if len(ag.Seeds) < maxFailedSeeds {
			ag.Seeds = append(ag.Seeds, rep.Seed)
		}
	}
	ag.Fleet = fnvFold(ag.Fleet, uint64(rep.Seed), uint64(rep.Fingerprint))
	ag.Runs += uint64(rep.Total)
	ag.UpcallDispatch.Merge(&rep.UpcallDispatch)
	ag.ReadyWait.Merge(&rep.ReadyWait)
	ag.BlockUnblock.Merge(&rep.BlockUnblock)
}
