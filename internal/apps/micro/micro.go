// Package micro implements the thread-operation microbenchmarks of the
// paper's Tables 1 and 4: Null Fork (the overhead of creating, scheduling,
// executing, and completing a thread that invokes the null procedure) and
// Signal-Wait (the overhead of signalling a waiting thread and then waiting
// on a condition). Each benchmark runs on a single processor and averages
// over many repetitions, exactly as described in §2.1.
//
// Four systems are measured: FastThreads on Topaz kernel threads (original),
// Topaz kernel threads used directly, Ultrix-like processes, and
// FastThreads on scheduler activations (Table 4's new column). The §5.1
// critical-section ablation and the §5.2 upcall benchmark live here too.
package micro

import (
	"fmt"

	"schedact/internal/core"
	"schedact/internal/kernel"
	"schedact/internal/machine"
	"schedact/internal/sim"
	"schedact/internal/stats"
	"schedact/internal/trace"
	"schedact/internal/uthread"
)

// Iters is the repetition count for each microbenchmark.
const Iters = 200

// StatsSink, when non-nil, is attached to every benchmark engine as a close
// hook: the engine's labelled metrics registry is delivered to the sink as
// the engine closes. The experiment harness installs it through
// exp.SetStatsSink; benchmarks built while no sink is installed run
// hook-free.
var StatsSink func(label string, reg *stats.Registry)

// WarmEngine, when non-nil, supplies every benchmark engine instead of
// fresh construction: the provider hands back a recycled engine already
// Reset for the given label, and the benchmark leaves it open when done
// (the provider owns the lifecycle, so no close hooks fire per benchmark).
// The warm-golden regression tests install this to prove the microbenchmark
// timelines are identical on a recycled engine.
var WarmEngine func(label string) sim.Engine

// newEngine builds one labelled benchmark engine, wiring the stats-sink
// close hook when a sink is installed.
func newEngine(label string) sim.Engine {
	opts := []sim.Option{sim.WithLabel(label)}
	if sink := StatsSink; sink != nil {
		opts = append(opts, sim.OnClose(func(e sim.Engine) {
			sink(e.Label(), e.Metrics())
		}))
	}
	return sim.NewEngine(opts...)
}

// engineFor acquires the engine for one benchmark: a recycled one from
// WarmEngine (release is then a no-op — the provider keeps it alive), or a
// fresh newEngine whose release closes it.
func engineFor(label string) (sim.Engine, func()) {
	if warm := WarmEngine; warm != nil {
		return warm(label), func() {}
	}
	eng := newEngine(label)
	return eng, func() { eng.Close() }
}

// System selects the thread system under measurement.
type System int

const (
	FastThreadsKT   System = iota // user-level threads on Topaz kernel threads
	TopazThreads                  // kernel threads used directly
	UltrixProcesses               // heavyweight processes
	FastThreadsSA                 // user-level threads on scheduler activations
)

func (s System) String() string {
	switch s {
	case FastThreadsKT:
		return "FastThreads on Topaz threads"
	case TopazThreads:
		return "Topaz threads"
	case UltrixProcesses:
		return "Ultrix processes"
	case FastThreadsSA:
		return "FastThreads on Scheduler Activations"
	}
	return "invalid"
}

// Result is one benchmark measurement.
type Result struct {
	System     System
	NullFork   sim.Duration
	SignalWait sim.Duration
}

// Run measures Null Fork and Signal-Wait on the given system with the given
// cost profile (nil for the calibrated default).
func Run(sys System, costs *machine.Costs) Result {
	return RunTraced(sys, costs, nil)
}

// RunTraced is Run with a scheduling trace threaded through both
// benchmarks' kernels and thread libraries (nil disables tracing). The
// golden-trace regression tests diff these dumps against committed
// canonical logs.
func RunTraced(sys System, costs *machine.Costs, tr *trace.Log) Result {
	if costs == nil {
		costs = machine.DefaultCosts()
	}
	return Result{
		System:     sys,
		NullFork:   nullFork(sys, costs, uthread.Options{}, tr),
		SignalWait: signalWait(sys, costs, uthread.Options{}, tr),
	}
}

// RunAblation measures FastThreads on scheduler activations with the §5.1
// explicit-flag critical sections instead of the zero-overhead marking.
func RunAblation(costs *machine.Costs) Result {
	if costs == nil {
		costs = machine.DefaultCosts()
	}
	opt := uthread.Options{ExplicitCSFlags: true}
	return Result{
		System:     FastThreadsSA,
		NullFork:   nullFork(FastThreadsSA, costs, opt, nil),
		SignalWait: signalWait(FastThreadsSA, costs, opt, nil),
	}
}

// --- user-level thread benchmarks ---

func newUT(sys System, costs *machine.Costs, opt uthread.Options, tr *trace.Log) (sim.Engine, func(), *uthread.Sched) {
	eng, release := engineFor(fmt.Sprintf("micro %s", sys))
	opt.Trace = tr
	switch sys {
	case FastThreadsKT:
		k := kernel.New(eng, kernel.Config{CPUs: 1, Costs: costs, Trace: tr})
		return eng, release, uthread.OnKernelThreads(k, k.NewSpace("bench", false), 1, opt)
	case FastThreadsSA:
		k := core.New(eng, core.Config{CPUs: 1, Costs: costs, Trace: tr})
		return eng, release, uthread.OnActivations(k, "bench", 0, 1, opt)
	}
	panic("micro: not a user-level system")
}

func utNullFork(sys System, costs *machine.Costs, opt uthread.Options, tr *trace.Log) sim.Duration {
	eng, release, s := newUT(sys, costs, opt, tr)
	defer release()
	var per sim.Duration
	s.Spawn("parent", func(th *uthread.Thread) {
		// One iteration: fork the null thread, yield so it runs next
		// (create, schedule, execute, complete), and be rescheduled once
		// it exits. Warm up once: the first fork includes the one-time
		// kernel notification of new parallelism.
		th.Fork("null", func(c *uthread.Thread) { c.Exec(costs.ProcCall) })
		th.Yield()
		start := th.Now()
		for i := 0; i < Iters; i++ {
			th.Fork("null", func(c *uthread.Thread) { c.Exec(costs.ProcCall) })
			th.Yield()
		}
		per = th.Now().Sub(start) / Iters
	})
	s.Start()
	eng.RunUntil(sim.Time(10 * sim.Second))
	return per
}

func utSignalWait(sys System, costs *machine.Costs, opt uthread.Options, tr *trace.Log) sim.Duration {
	eng, release, s := newUT(sys, costs, opt, tr)
	defer release()
	a, b := s.NewCond(), s.NewCond()
	var per sim.Duration
	s.Spawn("waiter", func(th *uthread.Thread) {
		for i := 0; i < Iters+10; i++ {
			b.Wait(th, nil)
			a.Signal(th)
		}
	})
	s.Spawn("bench", func(th *uthread.Thread) {
		// Let the waiter block first.
		th.Yield()
		// Warm-up round.
		b.Signal(th)
		a.Wait(th, nil)
		start := th.Now()
		for i := 0; i < Iters; i++ {
			b.Signal(th) // signal the waiting thread...
			a.Wait(th, nil)
			// ...then wait on a condition: one Signal-Wait pair.
		}
		per = th.Now().Sub(start) / (2 * Iters)
	})
	s.Start()
	eng.RunUntil(sim.Time(10 * sim.Second))
	return per
}

// --- kernel thread / process benchmarks ---

func ktNullFork(heavy bool, costs *machine.Costs, tr *trace.Log) sim.Duration {
	eng, release := engineFor(fmt.Sprintf("micro nullfork heavy=%v", heavy))
	defer release()
	k := kernel.New(eng, kernel.Config{CPUs: 1, Costs: costs, Trace: tr})
	sp := k.NewSpace("bench", heavy)
	var per sim.Duration
	sp.Spawn("parent", 0, func(th *kernel.KThread) {
		c := th.Fork("null", func(c *kernel.KThread) { c.Exec(costs.ProcCall) })
		th.Join(c)
		start := k.Eng.Now()
		for i := 0; i < Iters; i++ {
			c := th.Fork("null", func(c *kernel.KThread) { c.Exec(costs.ProcCall) })
			th.Join(c)
		}
		per = k.Eng.Now().Sub(start) / Iters
	})
	eng.RunUntil(sim.Time(60 * sim.Second))
	return per
}

func ktSignalWait(heavy bool, costs *machine.Costs, tr *trace.Log) sim.Duration {
	eng, release := engineFor(fmt.Sprintf("micro signalwait heavy=%v", heavy))
	defer release()
	k := kernel.New(eng, kernel.Config{CPUs: 1, Costs: costs, Trace: tr})
	sp := k.NewSpace("bench", heavy)
	a, b := k.NewCond(), k.NewCond()
	var per sim.Duration
	sp.Spawn("waiter", 0, func(th *kernel.KThread) {
		for i := 0; i < Iters+10; i++ {
			b.Wait(th, nil)
			a.Signal(th)
		}
	})
	sp.Spawn("bench", 0, func(th *kernel.KThread) {
		th.Yield()
		b.Signal(th)
		a.Wait(th, nil)
		start := k.Eng.Now()
		for i := 0; i < Iters; i++ {
			b.Signal(th)
			a.Wait(th, nil)
		}
		per = k.Eng.Now().Sub(start) / (2 * Iters)
	})
	eng.RunUntil(sim.Time(60 * sim.Second))
	return per
}

func nullFork(sys System, costs *machine.Costs, opt uthread.Options, tr *trace.Log) sim.Duration {
	switch sys {
	case FastThreadsKT, FastThreadsSA:
		return utNullFork(sys, costs, opt, tr)
	case TopazThreads:
		return ktNullFork(false, costs, tr)
	case UltrixProcesses:
		return ktNullFork(true, costs, tr)
	}
	panic("micro: unknown system")
}

func signalWait(sys System, costs *machine.Costs, opt uthread.Options, tr *trace.Log) sim.Duration {
	switch sys {
	case FastThreadsKT, FastThreadsSA:
		return utSignalWait(sys, costs, opt, tr)
	case TopazThreads:
		return ktSignalWait(false, costs, tr)
	case UltrixProcesses:
		return ktSignalWait(true, costs, tr)
	}
	panic("micro: unknown system")
}

// UpcallSignalWait is the §5.2 measurement: two user-level threads on
// scheduler activations forced to signal and wait through the kernel. It
// returns the full round-trip time per signal-wait pair (the paper reports
// 2.4 ms on the prototype).
func UpcallSignalWait(costs *machine.Costs) sim.Duration {
	if costs == nil {
		costs = machine.DefaultCosts()
	}
	eng, release := engineFor("micro upcall-signalwait")
	defer release()
	k := core.New(eng, core.Config{CPUs: 2, Costs: costs})
	s := uthread.OnActivations(k, "bench", 0, 2, uthread.Options{})
	a, b := k.NewKernelEvent(), k.NewKernelEvent()
	const iters = 20
	var per sim.Duration
	s.Spawn("waiter", func(th *uthread.Thread) {
		for i := 0; i < iters+4; i++ {
			th.KernelWait(b)
			th.KernelSignal(a)
		}
	})
	s.Spawn("bench", func(th *uthread.Thread) {
		th.Exec(sim.Ms(10)) // let the waiter block in the kernel
		th.KernelSignal(b)
		th.KernelWait(a)
		start := th.Now()
		for i := 0; i < iters; i++ {
			th.KernelSignal(b)
			th.KernelWait(a)
		}
		per = th.Now().Sub(start) / (2 * iters)
	})
	s.Start()
	eng.RunUntil(sim.Time(60 * sim.Second))
	return per
}
