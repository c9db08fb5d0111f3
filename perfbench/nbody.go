package main

import (
	"fmt"
	"io"
	"sync"

	"schedact/internal/apps/nbody"
	"schedact/internal/core"
	"schedact/internal/exp"
	"schedact/internal/kernel"
	"schedact/internal/scenario"
	"schedact/internal/sim"
	"schedact/internal/stats"
	"schedact/internal/uthread"
)

// nbodyWL is one of the N-body workloads: a built-in application spec
// (Figure 2's memory axis, or Table 5's multiprogrammed cells with their
// sequential baseline) run through exp.RunProgram at fleet width 1, one
// cold engine per job, at one or more consecutive body seeds starting at
// workload.nbody.seed = the benchmark seed. A pass runs the program once
// per seed; the baseline counts as a job.
type nbodyWL struct {
	cfg   config
	rep   *report
	progs []*nbodyProg

	events []uint64 // per engine close, from the stats sink
	mu     sync.Mutex

	pool *sim.Pool // the traced run's job engines
}

// nbodyProg is the workload's program at one body seed, with the
// reference its passes are checked against.
type nbodyProg struct {
	seed int64
	spec scenario.Spec
	prog *scenario.Program

	expect   outputs          // what every pass must reproduce
	outcomes [][]sim.Duration // first pass's per-job virtual times (baseline first)
	haveRef  bool
	refOK    bool // the first pass reproduced expect
}

// multiprogSeeds is how many body seeds a nbody-multiprog pass covers.
// Table 5 has four jobs, and the slowest — orig-ft, which sets the tail —
// fires 1.9M to 3.6M events depending on the body seed (inter-quartile
// range 22% of the median over seeds 1..20). Each job's time is its
// median over eight seeds, so the tail reports how fast the code runs
// orig-ft rather than how much work one seed happened to give it.
const multiprogSeeds = 8

func newNbody(cfg config) *nbodyWL {
	base, seeds := scenario.Fig2(), 1
	if cfg.workload == "nbody-multiprog" {
		base, seeds = scenario.Table5(), multiprogSeeds
	}
	w := &nbodyWL{cfg: cfg, pool: sim.NewPool()}
	for i := 0; i < seeds; i++ {
		p := &nbodyProg{seed: cfg.seed + int64(i), spec: base}
		p.spec.Workload.Nbody = &scenario.NbodyOverrides{N: cfg.nbodyN, Steps: cfg.nbodySteps, Seed: p.seed}
		w.progs = append(w.progs, p)
	}
	exp.SetStatsSink(w.sink)
	return w
}

// sink receives every harness engine's registry as the engine closes.
func (w *nbodyWL) sink(_ string, reg *stats.Registry) {
	v, _ := reg.Value("sim.events")
	w.mu.Lock()
	w.events = append(w.events, v)
	w.mu.Unlock()
}

// setup parses and compiles the spec at every seed, then runs the first
// program's first job alone as the warm-up.
func (w *nbodyWL) setup() error {
	for _, p := range w.progs {
		prog, err := compileSpec(p.spec)
		if err != nil {
			return err
		}
		p.prog = prog
	}
	first := w.progs[0]
	job := first.prog.Jobs[0]
	warm := first.spec
	warm.Workload.MemoryPct = []float64{job.MemPct}
	warm.Workload.Baseline = false
	warm.Binding.Systems = []string{job.System}
	wprog, err := compileSpec(warm)
	if err != nil {
		return err
	}
	_, err = exp.RunProgram(io.Discard, wprog, exp.RunOptions{Workers: 1})
	return err
}

// reference defers to the first pass: its outputs are checked against the
// pinned values (canonical seed and size) or the stored reference, and
// every later pass and the traced run must reproduce them.
func (w *nbodyWL) reference(rep *report) error {
	w.rep = rep
	return nil
}

// stampWriter probes the process at each write the runner makes: one
// header line, then one line per finished job, in job order, then the
// summary.
type stampWriter struct{ at []probe }

func (s *stampWriter) Write(p []byte) (int, error) {
	s.at = append(s.at, takeProbe())
	return len(p), nil
}

// pass runs the program once per seed. A job's key is its index in the
// program, so the same job at different seeds shares a key.
func (w *nbodyWL) pass() ([]jobSample, error) {
	var out []jobSample
	for _, p := range w.progs {
		js, err := w.passOne(p)
		if err != nil {
			return nil, err
		}
		out = append(out, js...)
	}
	return out, nil
}

// passOne runs one program through exp.RunProgram. Job times come from the
// runner's streamed lines: the baseline runs before the header, and each
// job's line is written as the job finishes.
func (w *nbodyWL) passOne(p *nbodyProg) ([]jobSample, error) {
	w.mu.Lock()
	w.events = w.events[:0]
	w.mu.Unlock()
	sw := &stampWriter{}
	start := takeProbe()
	pr, err := exp.RunProgram(sw, p.prog, exp.RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	n := len(p.prog.Jobs)
	if len(sw.at) != n+2 {
		return nil, fmt.Errorf("%s: runner wrote %d lines, want header + %d jobs + summary", w.cfg.workload, len(sw.at), n)
	}
	var out []jobSample
	var outcomes [][]sim.Duration
	if p.spec.Workload.Baseline {
		out = append(out, jobSample{cost: sw.at[0].since(start), system: "seq"})
		outcomes = append(outcomes, []sim.Duration{pr.Baseline})
	}
	for i, j := range p.prog.Jobs {
		out = append(out, jobSample{cost: sw.at[i+1].since(sw.at[i]), system: systemKey(j.System)})
		outcomes = append(outcomes, pr.Outcomes[i].Els)
	}
	w.mu.Lock()
	for i := range out {
		out[i].key = i
		if len(w.events) == len(out) {
			out[i].events = w.events[i]
		}
	}
	w.mu.Unlock()

	got := outputs{Fingerprint: pr.Fingerprint, BaselineNs: int64(pr.Baseline)}
	for _, o := range pr.Outcomes {
		for _, el := range o.Els {
			got.VirtualNs += int64(el)
		}
	}
	if !p.haveRef {
		if err := w.fixReference(p, got, outcomes); err != nil {
			return nil, err
		}
	}
	ok := got == p.expect
	if !ok {
		w.rep.notef("seed %d: pass outputs %s, reference %s: every job of the pass fails", p.seed, got, p.expect)
	}
	for i := range out {
		out[i].ok = ok && sameEls(outcomes[i], p.outcomes[i])
	}
	return out, nil
}

// fixReference resolves a program's reference from its first pass's
// outputs and keeps that pass's per-job virtual times for the traced run.
func (w *nbodyWL) fixReference(p *nbodyProg, got outputs, outcomes [][]sim.Duration) error {
	var pin *outputs
	if p.seed == canonicalSeed && w.cfg.nbodyN == 0 && w.cfg.nbodySteps == 0 {
		ref := pinnedRefs[w.cfg.workload]
		pin = &ref
	}
	key := fmt.Sprintf("%s-seed%d-n%d-s%d-%s", w.cfg.workload, p.seed, w.cfg.nbodyN, w.cfg.nbodySteps, sourceDigest("."))
	want, err := expectFor(w.cfg, pin, key, got, w.rep)
	if err != nil {
		return err
	}
	p.expect, p.outcomes, p.haveRef, p.refOK = want, outcomes, true, got == want
	if p.spec.Workload.Baseline {
		w.printSpeedups(p)
	}
	return nil
}

// paperTable5 is the paper's Table 5: N-body speedup with two copies on 6
// processors, by system.
var paperTable5 = map[string]float64{"topaz": 1.29, "origft": 1.26, "newft": 2.45}

// printSpeedups prints the model's Table 5 speedups beside the paper's, as
// the model's stated error. It is a check printed for the reader, not a
// metric.
func (w *nbodyWL) printSpeedups(p *nbodyProg) {
	base := float64(p.outcomes[0][0])
	for i, j := range p.prog.Jobs {
		var sum sim.Duration
		els := p.outcomes[i+1]
		for _, el := range els {
			sum += el
		}
		avg := sum / sim.Duration(len(els)) // the harness's integer mean
		sys := systemKey(j.System)
		got := base / float64(avg)
		fmt.Fprintf(w.cfg.log, "table5 seed %d %-7s speedup %.2f  paper %.2f  model error %+.0f%%\n",
			p.seed, sys, got, paperTable5[sys], 100*(got-paperTable5[sys])/paperTable5[sys])
	}
}

// sameEls reports whether two jobs' virtual times agree exactly.
func sameEls(a, b []sim.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// systemKey maps a spec system id onto the metric suffix.
func systemKey(id string) string {
	switch id {
	case scenario.SysTopaz:
		return "topaz"
	case scenario.SysOrigFT:
		return "origft"
	case scenario.SysNewFT:
		return "newft"
	}
	return id
}

// nbodyConfig is one job's problem: the calibrated default, the spec's
// overrides, the job's memory point.
func (p *nbodyProg) nbodyConfig(memPct float64) nbody.Config {
	cfg := nbody.DefaultConfig()
	if o := p.spec.Workload.Nbody; o != nil {
		if o.N > 0 {
			cfg.N = o.N
		}
		if o.Steps > 0 {
			cfg.Steps = o.Steps
		}
		if o.Seed != 0 {
			cfg.Seed = o.Seed
		}
	}
	cfg.MemFraction = memPct / 100
	return cfg
}

// runBaseline runs the sequential implementation on its own engine, as the
// runner's baseline does. With acc non-nil the engine is traced.
func runBaseline(p *nbodyProg, acc *layerAcc) []sim.Duration {
	t0 := nanotime()
	eng := sim.NewEngine(sim.WithLabel("sequential"))
	defer eng.Close()
	var spans *spanRec
	if acc != nil {
		spans = acc.trace(eng)
	}
	k := kernel.New(eng, kernel.Config{CPUs: p.spec.Machine.CPUs})
	exp.StartDaemonNative(k)
	r := nbody.RunSequential(k.NewSpace("seq", false), p.nbodyConfig(100))
	return drive(eng, acc, spans, t0, []*nbody.Run{r})
}

// runJob runs one compiled application job on a fresh engine from pool,
// building the kernel, thread system and application copies from the
// public constructors in the runner's order. With acc non-nil the engine
// is traced.
func runJob(pool *sim.Pool, p *nbodyProg, j scenario.Job, acc *layerAcc) []sim.Duration {
	t0 := nanotime()
	eng := pool.NewEngine(sim.WithLabel(j.Label))
	defer eng.Close()
	var spans *spanRec
	if acc != nil {
		spans = acc.trace(eng)
	}
	cpus := p.spec.Machine.CPUs
	cfg := p.nbodyConfig(j.MemPct)
	name := func(i int) string {
		if j.Copies == 1 {
			return "nbody"
		}
		return fmt.Sprintf("nbody%d", i)
	}
	runs := make([]*nbody.Run, j.Copies)
	switch j.System {
	case scenario.SysTopaz:
		k := kernel.New(eng, kernel.Config{CPUs: cpus})
		exp.StartDaemonNative(k)
		for i := range runs {
			sp := k.NewSpace(name(i), false)
			sp.CPUCap = j.Procs
			runs[i] = nbody.Launch(nbody.KThreadSystem{K: k, SP: sp}, cfg)
		}
	case scenario.SysOrigFT:
		k := kernel.New(eng, kernel.Config{CPUs: cpus})
		exp.StartDaemonNative(k)
		for i := range runs {
			s := uthread.OnKernelThreads(k, k.NewSpace(name(i), false), j.Procs, uthread.Options{})
			runs[i] = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
			s.Start()
		}
	case scenario.SysNewFT:
		k := core.New(eng, core.Config{CPUs: cpus})
		exp.StartDaemonSA(k)
		for i := range runs {
			s := uthread.OnActivations(k, name(i), 0, j.Procs, uthread.Options{})
			runs[i] = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
			s.Start()
		}
	}
	return drive(eng, acc, spans, t0, runs)
}

// drive runs eng to the harness's run limit and returns each copy's
// virtual execution time (0 for a copy that did not finish). With acc
// non-nil the run is traced through spans.
func drive(eng sim.Engine, acc *layerAcc, spans *spanRec, t0 int64, runs []*nbody.Run) []sim.Duration {
	if acc != nil {
		acc.ns["exp.build_ms"] += nanotime() - t0
		acc.drive(func() { eng.RunUntil(exp.RunLimit) })
		acc.addEngine(eng)
		spans.flush()
	} else {
		eng.RunUntil(exp.RunLimit)
	}
	els := make([]sim.Duration, len(runs))
	for i, r := range runs {
		els[i] = r.Elapsed()
	}
	return els
}

// cycle runs every job of every seed's program (baseline first) on the
// benchmark's own construction, untraced then traced, and checks both
// against the runner's outputs.
func (w *nbodyWL) cycle(acc *layerAcc) error {
	for _, p := range w.progs {
		type job struct {
			label string
			run   func(*layerAcc) []sim.Duration
		}
		var jobs []job
		if p.spec.Workload.Baseline {
			jobs = append(jobs, job{"sequential", func(a *layerAcc) []sim.Duration { return runBaseline(p, a) }})
		}
		for _, j := range p.prog.Jobs {
			jobs = append(jobs, job{j.Label, func(a *layerAcc) []sim.Duration { return runJob(w.pool, p, j, a) }})
		}
		for i, j := range jobs {
			t := nanotime()
			plain := j.run(nil)
			t1 := nanotime()
			traced := j.run(acc)
			acc.untraced += t1 - t
			acc.traced += nanotime() - t1
			acc.jobs++
			if !p.refOK || !sameEls(traced, p.outcomes[i]) || !sameEls(plain, p.outcomes[i]) {
				acc.fail("seed %d %s: virtual times %v (traced) / %v (untraced), reference %v", p.seed, j.label, traced, plain, p.outcomes[i])
			}
		}
	}
	return nil
}

// extras reports the untraced per-system job times from the public pass.
func (w *nbodyWL) extras(acc *layerAcc, public []jobSample) {
	by := map[string][]float64{}
	for _, j := range public {
		by[j.system] = append(by[j.system], j.ms())
	}
	for _, sys := range []string{"topaz", "origft", "newft"} {
		acc.values["exp.job_ms."+sys] = median(by[sys])
	}
}

func (w *nbodyWL) close() {
	exp.SetStatsSink(nil)
	w.pool.Close()
}
