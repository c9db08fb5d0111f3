package main

import (
	"fmt"
	"math/rand"

	"schedact/internal/chaos"
	"schedact/internal/core"
	"schedact/internal/exp"
	"schedact/internal/scenario"
	"schedact/internal/sim"
	"schedact/internal/trace"
)

// chaosMix is the chaos sweep spec's inner loop: a block of seeds
// (faults.first_seed = the benchmark seed) of the fault-injected mixed
// workload on scheduler activations, auditor armed, fingerprinter and
// latency deriver on, every seed replay-checked, all on one warm
// exp.RunContext. One job is one seed with its replay.
type chaosMix struct {
	cfg   config
	rep   *report
	seeds []int64
	rc    *exp.RunContext

	ref    []chaosOut // per seed, from the cold reference pass
	expect uint64     // fleet fingerprint every pass must reproduce
	refOK  bool       // the cold reference pass reproduced expect

	pool *sim.Pool // cold stacks of the reference and traced runs

	// The traced run's observer ladder: host time per rung, and why a rung
	// was dropped ("" = kept).
	rungNs  []int64
	rungBad []string
}

// chaosSeeds is the pass width. Per-seed cost varies widely (the typical
// seed's inter-quartile range is 85% of its median, and a few seeds in a
// hundred cost 50x the median), so per-job statistics are medians over
// many distinct seeds: at 256 a block's median moves by about 6% from one
// first_seed to another, and two passes still fit a 20-second run.
const chaosSeeds = 256

func newChaosMix(cfg config) *chaosMix {
	return &chaosMix{
		cfg:     cfg,
		pool:    sim.NewPool(),
		rungNs:  make([]int64, len(ladder)),
		rungBad: make([]string, len(ladder)),
	}
}

func (c *chaosMix) width() int {
	if c.cfg.chaosSeeds > 0 {
		return c.cfg.chaosSeeds
	}
	return chaosSeeds
}

// setup parses and compiles the chaos spec, builds a warm run context and
// runs one seed on it. The warm-up seed is the canonical one whatever the
// benchmark seed, so setup_s times the same work on every run.
func (c *chaosMix) setup() error {
	sp := scenario.ChaosSpec(c.cfg.seed, int64(c.width()))
	sp.Faults.Replay = scenario.ReplayFull
	prog, err := compileSpec(sp)
	if err != nil {
		return err
	}
	c.seeds = c.seeds[:0]
	for _, j := range prog.Jobs {
		c.seeds = append(c.seeds, j.Seed)
	}
	if c.rc != nil {
		c.rc.Close()
	}
	c.rc = exp.NewRunContext()
	c.rc.RunSeedReportReplay(canonicalSeed, true)
	return nil
}

// reference runs every seed once on a cold stack built from the public
// constructors (the order of the harness's cold chaos path), untimed, and
// fixes the fleet fingerprint the warm passes must reproduce.
func (c *chaosMix) reference(rep *report) error {
	c.rep = rep
	c.ref = c.ref[:0]
	var fleet uint64
	refOK := true
	for i, s := range c.seeds {
		o := c.cold(s, fullObservers, nil)
		if !o.ok() {
			rep.notef("seed %d failed on the cold reference stack: %s", s, o)
			refOK = false
		}
		c.ref = append(c.ref, o)
		fleet = fnvFold(fleet, uint64(s), o.fp)
		if i == 63 && c.cfg.seed == canonicalSeed {
			if fleet != pinnedChaos64 {
				rep.notef("REFERENCE MISMATCH: seeds 1..64 fold to %016x, pinned chaos64 fleet %016x", fleet, uint64(pinnedChaos64))
				refOK = false
			} else {
				rep.notef("reference: seeds 1..64 reproduce the pinned chaos64 fleet fingerprint %016x", fleet)
			}
		}
	}
	key := fmt.Sprintf("chaos-mix-seed%d-n%d-%s", c.cfg.seed, c.width(), sourceDigest("."))
	want, err := expectFor(c.cfg, nil, key, outputs{Fingerprint: fleet}, rep)
	if err != nil {
		return err
	}
	c.expect, c.refOK = want.Fingerprint, refOK && fleet == want.Fingerprint
	if !c.refOK {
		c.expect = ^fleet // the reference is untrusted: fail every pass
	}
	return nil
}

// pass runs the block once on the warm context, timing each seed.
func (c *chaosMix) pass() ([]jobSample, error) {
	out := make([]jobSample, len(c.seeds))
	var fleet uint64
	p0 := takeProbe()
	for i, s := range c.seeds {
		r := c.rc.RunSeedReportReplay(s, true)
		p1 := takeProbe()
		out[i].cost, p0 = p1.since(p0), p1
		ref := c.ref[i]
		out[i].key = i
		out[i].system = "newft"
		out[i].events = 2 * ref.events // the run and its replay
		out[i].ok = r.OK() && uint64(r.Fingerprint) == ref.fp && r.End == ref.end &&
			r.Finished == ref.finished && r.Total == ref.total && r.Preempts == ref.preempts
		fleet = fnvFold(fleet, uint64(s), uint64(r.Fingerprint))
	}
	if fleet != c.expect {
		c.rep.notef("pass fleet fingerprint %016x, reference %016x: every job of the pass fails", fleet, c.expect)
		for i := range out {
			out[i].ok = false
		}
	}
	return out, nil
}

// observers selects which observers a cold chaos stack carries.
type observers struct {
	replay, latencies, fingerprint, auditor, stream bool
}

var fullObservers = observers{true, true, true, true, true}

// ladder removes one observer per rung, cumulatively; each rung's share
// is the host time it saved, over the full stack's per-seed time.
var ladder = []struct {
	share string
	obs   observers
}{
	{"", fullObservers},
	{"chaos.replay_share", observers{false, true, true, true, true}},
	{"trace.latencies_share", observers{false, false, true, true, true}},
	{"chaos.fingerprint_share", observers{false, false, false, true, true}},
	{"chaos.audit_share", observers{false, false, false, false, true}},
	{"trace.stream_share", observers{false, false, false, false, false}},
}

// chaosOut is one cold chaos run's simulated outputs.
type chaosOut struct {
	fp         uint64 // 0 without a fingerprinter
	end        sim.Time
	finished   int
	total      int
	preempts   uint64
	violations int
	events     uint64
}

func (o chaosOut) ok() bool { return o.violations == 0 && o.finished == o.total }

// sameRun reports whether two runs of a seed agree on everything every
// ladder rung must leave unchanged.
func (o chaosOut) sameRun(p chaosOut) bool {
	return o.end == p.end && o.finished == p.finished && o.total == p.total && o.preempts == p.preempts
}

func (o chaosOut) String() string {
	return fmt.Sprintf("fp %016x end %v threads %d/%d preempts %d violations %d",
		o.fp, o.end, o.finished, o.total, o.preempts, o.violations)
}

// cold runs seed once on a freshly constructed stack carrying obs, in the
// construction order of the harness's cold chaos path. With acc non-nil
// the engine is traced: firings are timed per kind and the run's counters,
// build and finish times accumulate into acc.
func (c *chaosMix) cold(seed int64, obs observers, acc *layerAcc) chaosOut {
	t0 := nanotime()
	eng := c.pool.NewEngine(sim.WithLabel(fmt.Sprintf("chaos seed %d", seed)))
	defer eng.Close()
	var spans *spanRec
	if acc != nil {
		spans = acc.trace(eng)
	}
	rng := rand.New(rand.NewSource(seed))
	var tr *trace.Log
	if obs.stream {
		tr = trace.NewStream()
	}
	k := core.New(eng, core.Config{CPUs: 2 + rng.Intn(4), Trace: tr})
	exp.StartDaemonSA(k)
	vm := k.NewVM()
	var aud *chaos.Auditor
	if obs.auditor {
		aud = chaos.Attach(k, tr, 250*sim.Microsecond)
	}
	var fpr *chaos.Fingerprinter
	if obs.fingerprint {
		fpr = chaos.NewFingerprinter(tr)
	}
	if obs.latencies {
		trace.NewLatencies(tr, eng.Metrics())
	}
	inj := chaos.New(eng, chaos.NewPlan(seed))
	inj.InstrumentSA(k)
	inj.InstrumentVM(vm)
	wl := exp.BuildMixedWorkload(k, vm, rng)
	t1 := nanotime()

	clean := func() bool { return aud == nil || len(aud.Violations) == 0 }
	drive := func() {
		for step := 0; step < c.rc.Storm && !wl.Done() && clean(); step++ {
			eng.RunFor(sim.Millisecond)
		}
		inj.Stop()
		for step := 0; step < c.rc.Drain && !wl.Done() && clean(); step++ {
			eng.RunFor(sim.Millisecond)
		}
	}
	if acc != nil {
		acc.drive(drive)
	} else {
		drive()
	}

	t2 := nanotime()
	o := chaosOut{end: eng.Now(), finished: wl.Finished(), total: wl.Total, preempts: inj.Stats.Preempts}
	if aud != nil {
		aud.Check()
		o.violations = len(aud.Violations)
	}
	if fpr != nil {
		o.fp = uint64(fpr.Finish(eng))
	}
	o.events = eng.Stats().Events
	if acc != nil {
		acc.ns["chaos.finish_ms"] += nanotime() - t2
		acc.ns["exp.build_ms"] += t1 - t0
		acc.addEngine(eng)
		spans.flush()
	}
	return o
}

// cycle runs every seed of the block, interleaved per seed: the traced
// full stack (run and replay), then each ladder rung untraced.
func (c *chaosMix) cycle(acc *layerAcc) error {
	for i, s := range c.seeds {
		ref := c.ref[i]
		t := nanotime()
		a := c.cold(s, fullObservers, acc)
		b := c.cold(s, fullObservers, acc)
		acc.traced += nanotime() - t
		acc.jobs++
		if !c.refOK || !a.ok() || a.fp != ref.fp || b.fp != a.fp || !a.sameRun(ref) {
			acc.fail("traced seed %d differs from the untraced reference: %s vs %s", s, a, ref)
		}
		for r, rung := range ladder {
			t := nanotime()
			o := c.cold(s, rung.obs, nil)
			if rung.obs.replay {
				c.cold(s, rung.obs, nil)
			}
			d := nanotime() - t
			c.rungNs[r] += d
			if r == 0 {
				acc.untraced += d
			}
			if !o.sameRun(ref) && c.rungBad[r] == "" {
				c.rungBad[r] = fmt.Sprintf("seed %d: %s vs full stack %s", s, o, ref)
			}
		}
	}
	return nil
}

// extras reports the ladder shares and the warm per-seed job time. A
// dropped rung's share reads 0, and the next kept rung is measured against
// the last kept one.
func (c *chaosMix) extras(acc *layerAcc, public []jobSample) {
	full := float64(c.rungNs[0])
	prev := c.rungNs[0]
	for r := 1; r < len(ladder); r++ {
		if c.rungBad[r] != "" {
			acc.notef("ladder rung %s dropped: removing it changed the run (%s)", ladder[r].share, c.rungBad[r])
			continue
		}
		acc.values[ladder[r].share] = float64(prev-c.rungNs[r]) / full
		prev = c.rungNs[r]
	}
	acc.notef("ladder host ms per seed:%s", ladderLine(c.rungNs, acc.jobs))
	times := make([]float64, len(public))
	for i, j := range public {
		times[i] = j.ms()
	}
	acc.values["exp.job_ms.newft"] = median(times)
}

// ladderLine renders each rung's mean host time per seed.
func ladderLine(ns []int64, seeds int) string {
	s := ""
	for r, v := range ns {
		name := "full"
		if r > 0 {
			name = "-" + ladder[r].share
		}
		s += fmt.Sprintf(" %s=%.2f", name, float64(v)/1e6/float64(max(seeds, 1)))
	}
	return s
}

func (c *chaosMix) close() {
	if c.rc != nil {
		c.rc.Close()
	}
	c.pool.Close()
}

// compileSpec renders a spec to its JSON file form, parses it back and
// compiles it — the path a user-supplied spec file takes.
func compileSpec(sp scenario.Spec) (*scenario.Program, error) {
	parsed, err := scenario.Parse(scenario.Marshal(sp))
	if err != nil {
		return nil, err
	}
	return scenario.Compile(parsed)
}

// fnvFold streams values into a rolling FNV-1a state, 8 little-endian
// bytes per value, 0 meaning unstarted — the harness's fleet fingerprint
// fold over (seed, fingerprint) pairs.
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
