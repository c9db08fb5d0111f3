package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one benchmark workload. The driver calls setup one or more
// times (each call replaces the previous repetition's state), then
// reference once, then either pass (untraced) or cycle (traced) until the
// run's time is spent.
type workload interface {
	// setup parses and compiles the workload's spec, builds its run stack
	// and runs a warm-up job. It is what setup_s times.
	setup() error
	// reference fixes the outputs every later job is checked against:
	// pinned values for the canonical seed, otherwise values this run
	// records (and re-checks against a stored copy from earlier runs).
	reference(rep *report) error
	// pass runs every job once, untraced, through the public entry point.
	pass() ([]jobSample, error)
	// cycle runs every job once through the benchmark's own construction,
	// traced and untraced, accumulating per-layer figures into acc.
	cycle(acc *layerAcc) error
	// extras adds the workload's own per-layer values (ladder shares,
	// per-system job times) once the traced run is over.
	extras(acc *layerAcc, public []jobSample)
	close()
}

// jobSample is one untraced job's measurement. A pass lists its jobs in
// the same order every time, so a job's index in the pass identifies it
// across passes. Jobs sharing a key are one program job at different
// seeds (nbody-multiprog); every other job has a key of its own.
type jobSample struct {
	cost
	key    int
	system string // "topaz", "origft", "newft", or "seq" for a baseline
	events uint64 // simulated events the job fired
	ok     bool   // outputs matched the reference
}

func (j jobSample) ms() float64 { return ms(j.wall) }

// setupReps is how many times set-up repeats; setup_s is their median.
const setupReps = 5

// minPasses is the fewest untraced passes a run makes, whatever its time
// budget: a job's first run in a process is slower (heaps and scratch
// buffers still growing), so each job's best pass must not be its first.
const minPasses = 2

// timeUp reports whether to stop after done passes (or cycles): at least
// atLeast, then until another would overrun the run's time budget, judging
// its length by the mean so far.
func timeUp(cfg config, start time.Time, done, atLeast int) bool {
	if cfg.maxPasses > 0 {
		return done >= cfg.maxPasses
	}
	if done < atLeast {
		return false
	}
	el := time.Since(start)
	return (el + el/time.Duration(done)).Seconds() > cfg.seconds
}

// runUntraced is the end-to-end run: set-up repetitions, the reference,
// then whole untraced passes for the run's seconds.
//
// Every per-job metric is a median over the program's distinct jobs of
// each job's fastest pass (for nbody-multiprog, of the job's median over
// its seeds). Per-job cost is heavy-tailed on chaos-mix (a
// few seeds of a block cost 50x the typical one), so any mean over a block
// would report which seeds the block holds rather than how fast the code
// runs them; the median stays put. Taking each job's fastest pass filters
// interference from other tenants of the host, which only ever adds time
// (stolen CPU comes in bursts of seconds).
func runUntraced(cfg config, w workload, rep *report) error {
	reps := cfg.setupReps
	if reps <= 0 {
		reps = setupReps
	}
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if err := w.reference(rep); err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	var byJob [][]jobSample
	for passes := 1; ; passes++ {
		js, err := w.pass()
		if err != nil {
			return err
		}
		for i, j := range js {
			if i == len(byJob) {
				byJob = append(byJob, nil)
			}
			byJob[i] = append(byJob[i], j)
			rep.Attempted++
			if !j.ok {
				rep.Failed++
			}
		}
		if timeUp(cfg, start, passes, minPasses) {
			wall := time.Since(start).Seconds()
			rep.notef("measured %d pass(es) of %d job(s) in %.3fs: %.4g jobs/s overall", passes, len(js), wall, float64(rep.Attempted)/wall)
			break
		}
	}
	costs := perJob(byJob)
	wall := column(costs, func(c jobCost) float64 { return c.wall })
	p50 := median(wall)
	tail := tailOf(wall)
	jobs := fmt.Sprintf("median over %d jobs of each job's best of %d pass(es)", len(costs), len(byJob[0]))
	if len(costs) < len(byJob) {
		jobs += fmt.Sprintf(", each job the median over %d seeds", len(byJob)/len(costs))
	}
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", reps))
	rep.add("jobs_per_s", "1/s", 1000/p50, "at the median job")
	rep.add("job_ms.p50", "ms", p50, jobs)
	rep.add("job_ms.tail", "ms", tail.Value, tail.note())
	rep.add("sim_events_per_s", "1/s", median(column(costs, func(c jobCost) float64 { return c.rate })), jobs)
	rep.add("cpu_ms_per_job", "ms", median(column(costs, func(c jobCost) float64 { return c.cpu })), "user+sys, "+jobs)
	rep.add("alloc_kb_per_job", "KiB", median(column(costs, func(c jobCost) float64 { return c.kb })), jobs)
	rep.add("allocs_per_job", "count", median(column(costs, func(c jobCost) float64 { return c.objs })), jobs)
	return nil
}

// jobCost is one distinct job's cost on each measure.
type jobCost struct{ wall, cpu, kb, objs, rate float64 }

// perJob reduces the passes (byJob[i] holds job i's sample from every
// pass) to one cost per job key: each job's fastest pass on every measure,
// then the median over the jobs sharing a key, in first-seen key order.
func perJob(byJob [][]jobSample) []jobCost {
	var keys []int
	byKey := map[int][]jobCost{}
	for _, samples := range byJob {
		best := func(f func(jobSample) float64) float64 {
			m := f(samples[0])
			for _, j := range samples[1:] {
				m = min(m, f(j))
			}
			return m
		}
		c := jobCost{
			wall: best(jobSample.ms),
			cpu:  best(func(j jobSample) float64 { return ms(j.cpu) }),
			kb:   best(func(j jobSample) float64 { return float64(j.bytes) / 1024 }),
			objs: best(func(j jobSample) float64 { return float64(j.objs) }),
		}
		c.rate = float64(samples[0].events) / (c.wall / 1000)
		k := samples[0].key
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	out := make([]jobCost, len(keys))
	for i, k := range keys {
		cs := byKey[k]
		med := func(f func(jobCost) float64) float64 { return median(column(cs, f)) }
		out[i] = jobCost{
			wall: med(func(c jobCost) float64 { return c.wall }),
			cpu:  med(func(c jobCost) float64 { return c.cpu }),
			kb:   med(func(c jobCost) float64 { return c.kb }),
			objs: med(func(c jobCost) float64 { return c.objs }),
			rate: med(func(c jobCost) float64 { return c.rate }),
		}
	}
	return out
}

// column extracts one measure from every cost.
func column(cs []jobCost, f func(jobCost) float64) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return xs
}

// runTraced is the per-layer run: one set-up, the reference, one untraced
// pass through the public entry point (per-system job times), then traced
// cycles for the run's seconds.
func runTraced(cfg config, w workload, rep *report) error {
	if err := w.setup(); err != nil {
		return err
	}
	if err := w.reference(rep); err != nil {
		return err
	}
	public, err := w.pass()
	if err != nil {
		return err
	}
	for _, j := range public {
		if !j.ok {
			rep.Failed++
		}
	}
	acc := newLayerAcc()
	start := time.Now()
	for cycles := 1; ; cycles++ {
		if err := w.cycle(acc); err != nil {
			return err
		}
		if timeUp(cfg, start, cycles, 1) {
			fmt.Fprintf(cfg.log, "traced %d cycle(s)\n", cycles)
			break
		}
	}
	w.extras(acc, public)
	rep.Attempted = len(public) + acc.jobs
	rep.Failed += acc.failed
	acc.report(rep)
	return nil
}
