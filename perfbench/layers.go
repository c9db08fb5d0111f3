package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"schedact/internal/sim"
)

// perLayer is every per-layer metric, in report order. Names and units
// match BENCHMARK.json's per_layer list (a test keeps the two in step).
// Counts are exact and per job; _ms values are host self time per job in
// the traced run; _frac and _share values are ratios.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.scheduled", "count"},
	{"sim.cancels", "count"},
	{"sim.overflows", "count"},
	{"sim.resumes", "count"},
	{"sim.physical_switches", "count"},
	{"sim.max_pending", "count"},
	{"sim.elided_frac", "ratio"},
	{"sim.overflow_frac", "ratio"},
	{"sim.resume_ms", "ms"},
	{"sim.gap_ms", "ms"},
	{"machine.dispatches", "count"},
	{"machine.preempts", "count"},
	{"machine.disk_ios", "count"},
	{"machine.exec_done_ms", "ms"},
	{"machine.disk_done_ms", "ms"},
	{"kernel.dispatches", "count"},
	{"kernel.preemptions", "count"},
	{"kernel.blocks", "count"},
	{"kernel.io_requests", "count"},
	{"kernel.fire_ms", "ms"},
	{"core.upcalls", "count"},
	{"core.act_creates", "count"},
	{"core.act_recycles", "count"},
	{"core.takes", "count"},
	{"core.grants", "count"},
	{"core.rebalances", "count"},
	{"core.io_requests", "count"},
	{"core.recycle_frac", "ratio"},
	{"core.fire_ms", "ms"},
	{"uthread.switches", "count"},
	{"uthread.steals", "count"},
	{"uthread.forks", "count"},
	{"uthread.upcalls", "count"},
	{"uthread.spin_wait_us", "us"},
	{"uthread.fire_ms", "ms"},
	{"chaos.preempts", "count"},
	{"chaos.inject_ms", "ms"},
	{"chaos.audit_ms", "ms"},
	{"chaos.finish_ms", "ms"},
	{"chaos.replay_share", "ratio"},
	{"chaos.audit_share", "ratio"},
	{"chaos.fingerprint_share", "ratio"},
	{"trace.latencies_share", "ratio"},
	{"trace.stream_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"exp.build_ms", "ms"},
	{"exp.daemon_ms", "ms"},
	{"exp.job_ms.topaz", "ms"},
	{"exp.job_ms.origft", "ms"},
	{"exp.job_ms.newft", "ms"},
	{"other.fire_ms", "ms"},
}

// kindMetric maps every event kind the workloads fire to the per-layer
// _ms metric its host self time is charged to. A kind missing here is
// charged to other.fire_ms and flagged in the report.
var kindMetric = map[sim.Kind]string{
	"co-resume":         "sim.resume_ms", // thread bodies plus the hand-off
	"co-wake":           "sim.resume_ms",
	"exec-done":         "machine.exec_done_ms",
	"disk:done":         "machine.disk_done_ms",
	"kdispatch":         "kernel.fire_ms",
	"quantum":           "kernel.fire_ms",
	"ktimer":            "kernel.fire_ms",
	"leftover-rotation": "core.fire_ms",
	"sleep-wake":        "uthread.fire_ms",
	"chaos-preempt":     "chaos.inject_ms",
	"chaos-rebalance":   "chaos.inject_ms",
	"chaos-evict":       "chaos.inject_ms",
	"chaos-interloper":  "chaos.inject_ms",
	"chaos-audit":       "chaos.audit_ms",
	"daemon-pulse":      "exp.daemon_ms",
}

// layerCounters are the stats-registry counters reported per job. A
// per-space scheduler counter ("uthread.<space>.switches") is summed over
// spaces under its layer name, and a "#2"-style duplicate (several
// schedulers of one kind on an engine) under its base name.
var layerCounters = map[string]bool{
	"machine.dispatches": true, "machine.preempts": true, "machine.disk_ios": true,
	"kernel.dispatches": true, "kernel.preemptions": true, "kernel.blocks": true, "kernel.io_requests": true,
	"core.upcalls": true, "core.act_creates": true, "core.act_recycles": true, "core.takes": true,
	"core.grants": true, "core.rebalances": true, "core.io_requests": true,
	"uthread.switches": true, "uthread.steals": true, "uthread.forks": true, "uthread.upcalls": true,
	"uthread.spin_wait_us": true,
	"chaos.preempts":       true,
}

// layerName folds a registry metric name onto its per-layer name.
func layerName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		name = name[:i]
	}
	if rest, ok := strings.CutPrefix(name, "uthread."); ok {
		if i := strings.LastIndexByte(rest, '.'); i >= 0 {
			name = "uthread." + rest[i+1:]
		}
	}
	return name
}

// layerAcc accumulates the traced run's per-layer figures.
type layerAcc struct {
	jobs   int // traced jobs
	failed int // traced jobs whose outputs differed from the reference

	counts map[string]float64 // counters summed over traced jobs
	ns     map[string]int64   // host self time summed per _ms metric
	kinds  map[sim.Kind]bool  // every kind fired
	driven int64              // host time inside engine drive calls
	top    int64              // part of driven covered by top-level firings

	traced, untraced int64 // wall of traced jobs vs the same jobs untraced

	values map[string]float64 // workload-set values, reported as given
	notes  []string
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		counts: map[string]float64{},
		ns:     map[string]int64{},
		kinds:  map[sim.Kind]bool{},
		values: map[string]float64{},
	}
}

// addEngine folds one traced engine's counters into the accumulator. Call
// it once the engine has finished driving, before Close.
func (a *layerAcc) addEngine(eng sim.Engine) {
	st := eng.Stats()
	a.counts["sim.events"] += float64(st.Events)
	a.counts["sim.scheduled"] += float64(st.Scheduled)
	a.counts["sim.cancels"] += float64(st.Cancels)
	a.counts["sim.overflows"] += float64(st.Overflows)
	a.counts["sim.resumes"] += float64(st.LogicalResumes)
	a.counts["sim.physical_switches"] += float64(st.PhysicalSwitches)
	a.counts["sim.max_pending"] += float64(st.MaxPending)
	for _, s := range eng.Metrics().Snapshot() {
		if n := layerName(s.Name); layerCounters[n] {
			a.counts[n] += float64(s.Value)
		}
	}
}

// epoch anchors the monotonic nanosecond clock the span recorder uses.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// spanRec times every event firing on the engine it is attached to.
// PreFire opens a span and PostFire closes it; spans nest when a running
// coroutine consumes its own wake-up in place, so each kind is charged its
// self time: the span minus the spans nested inside it. An elided
// continuation therefore stays with the firing whose coroutine it runs in.
// The hot path touches no map: kinds are looked up in a short slice
// (constant kind strings compare by pointer first), and flush folds the
// totals into the accumulator once the engine is done.
type spanRec struct {
	acc   *layerAcc
	stack []frame
	kinds []sim.Kind
	ns    []int64
	top   int64 // time covered by top-level spans
}

type frame struct {
	kind  sim.Kind
	start int64
	child int64
}

// trace attaches a new recorder to eng's fire hooks.
func (a *layerAcc) trace(eng sim.Engine) *spanRec {
	s := &spanRec{acc: a}
	h := eng.Hooks()
	h.Register(sim.HookPreFire, sim.HookFunc(func(c *sim.HookCtx) {
		s.stack = append(s.stack, frame{kind: c.Kind, start: nanotime()})
	}))
	h.Register(sim.HookPostFire, sim.HookFunc(func(*sim.HookCtx) {
		t := nanotime()
		f := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		d := t - f.start
		s.charge(f.kind, d-f.child)
		if n := len(s.stack); n > 0 {
			s.stack[n-1].child += d
		} else {
			s.top += d
		}
	}))
	return s
}

// charge adds self time to kind.
func (s *spanRec) charge(kind sim.Kind, self int64) {
	for i, k := range s.kinds {
		if k == kind {
			s.ns[i] += self
			return
		}
	}
	s.kinds = append(s.kinds, kind)
	s.ns = append(s.ns, self)
}

// flush folds the recorder's totals into the accumulator: each kind's
// self time onto its layer metric (other.fire_ms when unmapped).
func (s *spanRec) flush() {
	a := s.acc
	for i, k := range s.kinds {
		a.kinds[k] = true
		m, ok := kindMetric[k]
		if !ok {
			m = "other.fire_ms"
		}
		a.ns[m] += s.ns[i]
	}
	a.top += s.top
}

// drive runs fn (an engine drive loop) and adds its host time to the
// driven total; time not covered by a top-level firing is the gap.
func (a *layerAcc) drive(fn func()) {
	t := nanotime()
	fn()
	a.driven += nanotime() - t
}

// unmapped lists fired kinds with no layer, sorted.
func (a *layerAcc) unmapped() []string {
	var out []string
	for k := range a.kinds {
		if _, ok := kindMetric[k]; !ok {
			out = append(out, string(k))
		}
	}
	sort.Strings(out)
	return out
}

// report emits every per-layer metric, in perLayer order, per traced job.
func (a *layerAcc) report(rep *report) {
	jobs := float64(a.jobs)
	if jobs == 0 {
		jobs = 1
	}
	perJobMs := func(ns int64) float64 { return float64(ns) / 1e6 / jobs }
	v := map[string]float64{}
	for n, c := range a.counts {
		v[n] = c / jobs
	}
	for n, ns := range a.ns {
		v[n] = perJobMs(ns)
	}
	gap := a.driven - a.top
	v["sim.gap_ms"] = perJobMs(gap)
	if c := a.counts; c["sim.resumes"] > 0 {
		v["sim.elided_frac"] = 1 - c["sim.physical_switches"]/c["sim.resumes"]
	}
	if c := a.counts; c["sim.scheduled"] > 0 {
		v["sim.overflow_frac"] = c["sim.overflows"] / c["sim.scheduled"]
	}
	if c := a.counts; c["core.act_recycles"]+c["core.act_creates"] > 0 {
		v["core.recycle_frac"] = c["core.act_recycles"] / (c["core.act_recycles"] + c["core.act_creates"])
	}
	if a.untraced > 0 {
		v["trace.overhead_frac"] = float64(a.traced)/float64(a.untraced) - 1
	}
	for n, x := range a.values {
		v[n] = x
	}
	for _, m := range perLayer {
		rep.add(m.name, m.unit, v[m.name], "")
	}
	var fired int64
	for _, ns := range a.ns {
		fired += ns
	}
	rep.notef("traced %d job(s): drive %.1fms = firings %.1fms + gap %.1fms (per job)",
		a.jobs, perJobMs(a.driven), perJobMs(fired), perJobMs(gap))
	if u := a.unmapped(); len(u) > 0 {
		rep.notef("UNMAPPED event kinds charged to other.fire_ms: %s", strings.Join(u, ", "))
	}
	rep.Notes = append(rep.Notes, a.notes...)
}

// notef records a note for the report.
func (a *layerAcc) notef(format string, args ...any) {
	a.notes = append(a.notes, fmt.Sprintf(format, args...))
}

// maxFailNotes bounds how many traced-job failures are described.
const maxFailNotes = 5

// fail counts a traced job whose outputs differed from the reference,
// describing the first few.
func (a *layerAcc) fail(format string, args ...any) {
	a.failed++
	if a.failed <= maxFailNotes {
		a.notef(format, args...)
	}
}
