// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation, each returning structured results with
// the paper's published values alongside the measured ones, plus the
// ablations DESIGN.md calls out. The cmd/saexp binary and the repository's
// benchmarks drive these.
package exp

import (
	"fmt"
	"io"

	"schedact/internal/core"
	"schedact/internal/fleet"
	"schedact/internal/kernel"
	"schedact/internal/sim"
	"schedact/internal/stats"
	"schedact/internal/trace"
	"schedact/internal/uthread"

	"schedact/internal/apps/micro"
	"schedact/internal/apps/nbody"
)

// MachineCPUs is the simulated Firefly's processor count.
const MachineCPUs = 6

// Workers is the pool width the experiment batteries fan their independent
// application runs across (internal/fleet); saexp -workers overrides it.
// Every run executes on its own engine and the series are assembled in job
// order, so results are byte-identical for any value — only wall-clock
// changes.
var Workers = fleet.DefaultWorkers()

// Daemon parameters: Topaz "has several daemon threads which wake up
// periodically, execute for a short time, and then go back to sleep"
// (§5.3).
const (
	DaemonPeriod = 50 * sim.Millisecond
	DaemonBurst  = 2 * sim.Millisecond
	DaemonPrio   = 4
)

// RunLimit bounds any single experiment run in virtual time.
const RunLimit = sim.Time(30 * 60 * sim.Second)

// SystemName identifies the three application-level systems of §5.3.
type SystemName string

const (
	SysTopaz  SystemName = "Topaz threads"
	SysOrigFT SystemName = "orig FastThreads"
	SysNewFT  SystemName = "new FastThreads"
)

// Systems lists them in the paper's presentation order.
var Systems = []SystemName{SysTopaz, SysOrigFT, SysNewFT}

// StartDaemonNative installs the periodic daemon on the native kernel: a
// high-priority kernel thread whose wake-ups the oblivious scheduler places
// without regard to idle processors.
func StartDaemonNative(k *kernel.Kernel) {
	sp := k.NewSpace("daemon", false)
	sp.Spawn("daemon", DaemonPrio, func(t *kernel.KThread) {
		for {
			t.SleepFor(DaemonPeriod)
			t.Exec(DaemonBurst)
		}
	})
}

// StartDaemonSA installs the daemon on the scheduler-activation kernel as a
// high-priority address space that periodically demands one processor, runs
// its burst, and gives the processor back. Because the allocator is
// explicit, these wake-ups disturb the application only when no processor
// is idle.
func StartDaemonSA(k *core.Kernel) {
	var sp *core.Space
	sp = k.NewSpace("daemon", DaemonPrio, core.ClientFunc(func(act *core.Activation, events []core.Event) {
		for _, ev := range events {
			if ev.Kind == core.EvPreempted && ev.Act != nil {
				// Recover an interrupted burst: finish it here.
				if w := ev.Act.TakeWorker(); w != nil {
					_ = w // the burst's remaining demand is in the worker
				}
				ev.Act.Discard()
			}
		}
		act.Context().Exec(DaemonBurst)
		// YieldProcessor also drops the registered demand to zero; setting
		// demand first would let the allocator preempt this very vessel out
		// from under the running downcall.
		act.YieldProcessor()
	}))
	// Periodic demand pulses, driven by a kernel timer.
	var pulse func()
	pulse = func() {
		sp.KernelSetDemand(1)
		k.Eng.After(DaemonPeriod, "daemon-pulse", pulse)
	}
	k.Eng.After(DaemonPeriod, "daemon-pulse", pulse)
	sp.Start()
	sp.KernelSetDemand(0)
}

// statsSink, when non-nil, is attached as a close hook to every engine the
// harness constructs (see SetStatsSink).
var statsSink func(label string, reg *stats.Registry)

// SetStatsSink installs fn as the stats sink for every engine the
// experiment harness — and the micro-benchmarks it drives — constructs from
// here on: each labelled run engine gets a close hook delivering its
// private metrics registry to fn as the run is torn down. This replaces the
// retired process-wide global the sim package once exported: attachment is
// per engine at construction time, so engines built outside the harness
// (chaos sweeps, library users) are untouched. Runs close concurrently under the fleet
// pool, so fn must be safe for concurrent calls. A nil fn uninstalls the
// sink.
func SetStatsSink(fn func(label string, reg *stats.Registry)) {
	statsSink = fn
	micro.StatsSink = fn
}

// engOpts builds the options for one labelled run engine, attaching the
// stats-sink close hook when a sink is installed.
func engOpts(label string) []sim.Option {
	opts := []sim.Option{sim.WithLabel(label)}
	if sink := statsSink; sink != nil {
		opts = append(opts, sim.OnClose(func(e sim.Engine) {
			sink(e.Label(), e.Metrics())
		}))
	}
	return opts
}

// --- application launchers ---

// seqTime runs the sequential implementation on a cpus-processor machine
// and returns its execution time.
func seqTime(cfg nbody.Config, cpus int, limit sim.Time) sim.Duration {
	eng := sim.NewEngine(engOpts("sequential")...)
	defer eng.Close()
	k := kernel.New(eng, kernel.Config{CPUs: cpus})
	StartDaemonNative(k)
	r := nbody.RunSequential(k.NewSpace("seq", false), cfg)
	eng.RunUntil(limit)
	if !r.Done {
		panic("exp: sequential run did not finish")
	}
	return r.Elapsed()
}

// launchOne starts one application instance of the given system on fresh
// kernels sized for the experiment. procs caps the application's
// parallelism (Figure 1's x-axis); the machine always has MachineCPUs
// processors.
func launchOne(sys SystemName, cfg nbody.Config, procs int, tr *trace.Log) (eng sim.Engine, run *nbody.Run) {
	return launchOneIn(nil, sys, cfg, procs, tr)
}

// launchOneIn is launchOne with the run's engine drawing coroutine
// goroutines from pool (nil = unpooled).
func launchOneIn(pool *sim.Pool, sys SystemName, cfg nbody.Config, procs int, tr *trace.Log) (eng sim.Engine, run *nbody.Run) {
	eng = pool.NewEngine(engOpts(fmt.Sprintf("%s P=%d", sys, procs))...)
	return eng, launchOnEngine(eng, sys, cfg, procs, tr)
}

// launchOnEngine is launchOneIn's kernel-and-application half on a
// caller-supplied engine — the seam the warm-golden tests use to drive the
// Figure 1 workloads on one recycled engine instead of a fresh one per run.
func launchOnEngine(eng sim.Engine, sys SystemName, cfg nbody.Config, procs int, tr *trace.Log) (run *nbody.Run) {
	switch sys {
	case SysTopaz:
		k := kernel.New(eng, kernel.Config{CPUs: MachineCPUs, Trace: tr})
		StartDaemonNative(k)
		sp := k.NewSpace("nbody", false)
		sp.CPUCap = procs
		run = nbody.Launch(nbody.KThreadSystem{K: k, SP: sp}, cfg)
	case SysOrigFT:
		k := kernel.New(eng, kernel.Config{CPUs: MachineCPUs, Trace: tr})
		StartDaemonNative(k)
		s := uthread.OnKernelThreads(k, k.NewSpace("nbody", false), procs, uthread.Options{Trace: tr})
		run = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
		s.Start()
	case SysNewFT:
		k := core.New(eng, core.Config{CPUs: MachineCPUs, Trace: tr})
		StartDaemonSA(k)
		s := uthread.OnActivations(k, "nbody", 0, procs, uthread.Options{Trace: tr})
		run = nbody.Launch(nbody.UThreadSystem{S: s}, cfg)
		s.Start()
	default:
		panic("exp: unknown system " + sys)
	}
	return run
}

// StatsTrace, when set, gives every launched application run a private
// trace stream consumed by the latency deriver, so each run's stats
// snapshot (saexp -stats) includes the upcall-dispatch, ready-wait, and
// block→unblock histograms. Off by default: untraced runs keep their
// nil-log fast path.
var StatsTrace bool

// workerPools is one optional coroutine-goroutine pool per fleet worker.
// Each pool is created lazily by — and stays confined to — the worker
// goroutine that owns the slot, so successive runs on the same worker reuse
// warm goroutines. The caller Closes the set after the fleet call returns
// (fleet.Run/Map return only after every worker has finished, which orders
// the Close after all pool use).
type workerPools []*sim.Pool

// newWorkerPools sizes the set exactly as fleet normalizes its pool width
// for n jobs, so every worker index the fleet reports has a slot.
func newWorkerPools(workers, n int) workerPools {
	if workers <= 0 {
		workers = fleet.DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return make(workerPools, workers)
}

// get returns the worker's pool, creating it on first use.
func (ps workerPools) get(worker int) *sim.Pool {
	if ps[worker] == nil {
		ps[worker] = sim.NewPool()
	}
	return ps[worker]
}

// Close retires every pool's idle goroutines.
func (ps workerPools) Close() {
	for _, p := range ps {
		p.Close()
	}
}

// runOne executes one application instance to completion and returns its
// execution time. pool may be nil (unpooled).
func runOne(pool *sim.Pool, sys SystemName, cfg nbody.Config, procs int, limit sim.Time) sim.Duration {
	var tr *trace.Log
	if StatsTrace {
		tr = trace.New(64)
	}
	eng, run := launchOneIn(pool, sys, cfg, procs, tr)
	defer eng.Close()
	if tr != nil {
		trace.NewLatencies(tr, eng.Metrics())
	}
	eng.RunUntil(limit)
	if !run.Done {
		panic(fmt.Sprintf("exp: %s run (P=%d) did not finish within the run limit", sys, procs))
	}
	return run.Elapsed()
}

// fprintf writes formatted output, ignoring errors (render helpers).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
