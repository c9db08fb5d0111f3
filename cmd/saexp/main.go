// Command saexp regenerates the tables and figures of the paper's
// evaluation (§5) on the simulated machine, printing measured values next
// to the paper's published ones.
//
// Usage:
//
//	saexp -exp table1     # Table 1: thread operation latencies
//	saexp -exp table4     # Table 4: + FastThreads on scheduler activations
//	saexp -exp csablation # §5.1: explicit-flag critical sections
//	saexp -exp upcall     # §5.2: signal-wait through the kernel
//	saexp -exp fig1       # Figure 1: speedup vs processors
//	saexp -exp fig2       # Figure 2: execution time vs memory
//	saexp -exp fig2tuned  # Figure 2 extra series with tuned upcalls
//	saexp -exp table5     # Table 5: multiprogramming
//	saexp -exp alloc      # §4.1 ablation: allocation policy
//	saexp -exp hysteresis # §4.2 ablation: idle hysteresis
//	saexp -exp all        # everything
//
// Any single experiment run can additionally export a Chrome/Perfetto trace:
//
//	saexp -exp fig1 -trace-out /tmp/fig1.json   # load in chrome://tracing or ui.perfetto.dev
//
// Scenario mode runs a declarative spec — a built-in by name, a JSON file,
// or stdin — through the same compiled pipeline the batteries use:
//
//	saexp -list                    # all built-in scenarios and experiments, one line each
//	saexp -scenario fig1           # a built-in spec by name
//	saexp -scenario my.json        # a custom spec from a file
//	cat my.json | saexp -scenario -  # ... or from stdin
//
// Chaos mode (separate from -exp):
//
//	saexp -chaos              # 64-seed fault-injection sweep, auditor armed
//	saexp -chaos -seeds 256   # more seeds
//	saexp -chaos -first 100 -seeds 64    # a different seed range (-first-seed works too)
//	saexp -chaos -workers 8   # pool width (default GOMAXPROCS; 1 = sequential)
//	saexp -chaos -ablate nogrant    # demo: auditor catches a broken allocator
//	saexp -chaos -ablate dropevent  # demo: auditor catches dropped events
//
// Each sweep worker owns one warm run context recycled across its seeds, so
// wide sweeps pay construction once per worker, not once per seed; per-seed
// results are byte-identical to cold runs either way.
//
// Chaos mode exits nonzero if any seed fails, so it can gate CI. It is the
// built-in chaos spec with the seed range taken from -first-seed/-seeds.
//
// A flag the selected mode would ignore (say -seeds with -scenario, or -csv
// with -exp table1) is an error, not a silent no-op.
//
// Any invocation can be profiled with the standard runtime/pprof writers
// (`make profile` wraps the chaos-sweep capture):
//
//	saexp -chaos -seeds 16 -workers 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -http=: cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"schedact/internal/core"
	"schedact/internal/exp"
	"schedact/internal/fleet"
	"schedact/internal/scenario"
	"schedact/internal/stats"
)

func main() { os.Exit(run()) }

// run is the real main, returning the exit code instead of calling os.Exit
// so the deferred profile writers always flush.
func run() int {
	which := flag.String("exp", "all", "experiment to run (table1, table4, csablation, upcall, breakeven, fig1, fig2, fig2tuned, table5, alloc, hysteresis, all)")
	csvOut := flag.Bool("csv", false, "emit figure series as CSV instead of tables (fig1/fig2 only)")
	statsOut := flag.Bool("stats", false, "dump each simulation run's counter registry as it finishes")
	chaosMode := flag.Bool("chaos", false, "run the seeded fault-injection sweep instead of an experiment")
	seeds := flag.Int64("seeds", 64, "number of chaos seeds to sweep (with -chaos)")
	firstSeed := flag.Int64("first-seed", 1, "first chaos seed (with -chaos; -first is an alias)")
	flag.Int64Var(firstSeed, "first", 1, "alias for -first-seed")
	scenarioSrc := flag.String("scenario", "", "run a declarative scenario: a built-in name (see -list), a spec JSON file, or - for stdin")
	list := flag.Bool("list", false, "list the built-in scenarios and experiments, one line each, and exit")
	ablate := flag.String("ablate", "", "run one deliberately broken kernel under the auditor: nogrant or dropevent (with -chaos)")
	workers := flag.Int("workers", 0, "parallel run pool width for sweeps and experiment batteries (1 = sequential; 0 = auto: one per CPU)")
	traceOut := flag.String("trace-out", "", "with -exp fig1: run the traced Figure 1 smoke configuration and write Chrome trace_event JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation heap profile to this file at exit (go tool pprof)")
	flag.Parse()

	// The mode, in the precedence order the dispatch below follows.
	mode := modeExp
	switch {
	case *traceOut != "":
		mode = modeTraceOut
	case *list:
		mode = modeList
	case *scenarioSrc != "":
		mode = modeScenario
	case *chaosMode:
		mode = modeChaos
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, mode, *which); err != nil {
		fmt.Fprintf(os.Stderr, "saexp: %v\n", err)
		return 2
	}

	// Scenario mode resolves its own width (explicit flag > spec hint >
	// auto), so remember whether -workers was explicit before normalizing.
	rawWorkers := *workers
	if *workers <= 0 {
		*workers = fleet.DefaultWorkers()
	}
	exp.Workers = *workers

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *traceOut != "" {
		if *which != "fig1" {
			fmt.Fprintf(os.Stderr, "-trace-out currently supports -exp fig1 only (got %q)\n", *which)
			return 2
		}
		return runTraceOut(*traceOut)
	}

	if *list {
		return runList()
	}
	if *scenarioSrc != "" {
		return runScenario(*scenarioSrc, exp.RunOptions{Workers: rawWorkers})
	}

	if *chaosMode {
		return runChaos(*seeds, *firstSeed, *ablate, exp.RunOptions{Workers: *workers})
	}

	out := os.Stdout
	if *statsOut {
		// Give each run a trace stream feeding the latency deriver, so the
		// dumped registries include latency.* p50/p90/p99.
		exp.StatsTrace = true
		// Runs close concurrently under the fleet pool, so the sink must
		// serialize its writes; each registry is still private to its run.
		var mu sync.Mutex
		exp.SetStatsSink(func(label string, reg *stats.Registry) {
			if reg.Len() == 0 {
				return
			}
			if label == "" {
				label = "(unlabelled run)"
			}
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(out, "-- stats: %s --\n", label)
			reg.Dump(out)
			fmt.Fprintln(out)
		})
	}
	ran := false
	want := func(name string) bool {
		if *which == "all" || *which == name {
			ran = true
			return true
		}
		return false
	}

	if want("table1") {
		exp.RenderMicro(out, "Table 1: Thread Operation Latencies (µsec)", exp.Table1())
	}
	if want("table4") {
		exp.RenderMicro(out, "Table 4: Thread Operation Latencies (µsec), with Scheduler Activations", exp.Table4())
	}
	if want("csablation") {
		r := exp.CSAblation()
		exp.RenderMicro(out, "§5.1 ablation: critical-section marking", []exp.MicroRow{r.ZeroOverhead, r.ExplicitFlag})
	}
	if want("upcall") {
		exp.RenderUpcall(out, exp.UpcallLatency())
	}
	if want("breakeven") {
		exp.RenderBreakEven(out, exp.BreakEven())
	}
	if want("fig1") {
		if *csvOut {
			r := exp.Figure1()
			if err := exp.WriteCSV(out, "processors", r.Series); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else {
			fmt.Fprintln(out, "running Figure 1 (19 application runs)...")
			exp.RenderFigure1(out, exp.Figure1())
		}
	}
	if want("fig2") {
		if *csvOut {
			r := exp.Figure2()
			if err := exp.WriteCSV(out, "pct_memory", r.Series); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else {
			fmt.Fprintln(out, "running Figure 2 (21 application runs)...")
			exp.RenderFigure2(out, exp.Figure2())
		}
	}
	if want("fig2tuned") {
		fmt.Fprintln(out, "running the tuned-upcall Figure 2 series...")
		s := exp.Figure2Tuned()
		fmt.Fprintf(out, "%-6s %28s\n", "%mem", s.System)
		for _, p := range s.Points {
			fmt.Fprintf(out, "%-6.0f %28.2f\n", p.X, p.Y)
		}
		fmt.Fprintln(out)
	}
	if want("table5") {
		fmt.Fprintln(out, "running Table 5 (6 application runs + sequential)...")
		exp.RenderTable5(out, exp.Table5())
	}
	if want("alloc") || want("hysteresis") {
		var a exp.AllocatorAblationResult
		var h exp.HysteresisAblationResult
		if *which == "all" || *which == "alloc" {
			a = exp.AllocatorAblation()
		}
		if *which == "all" || *which == "hysteresis" {
			h = exp.HysteresisAblation()
		}
		exp.RenderAblations(out, a, h)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		flag.Usage()
		return 2
	}
	return 0
}

// runTraceOut runs the traced Figure 1 smoke configuration, writes the
// Chrome trace_event export, and re-reads it through the JSON parser so a
// malformed export fails loudly here rather than inside the browser.
func runTraceOut(path string) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	n, err := exp.TraceFigure1(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "exported trace does not parse: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s: %d records, %d trace events, %d bytes (load in chrome://tracing or ui.perfetto.dev)\n",
		path, n, len(doc.TraceEvents), len(raw))
	return 0
}

// runList prints every built-in scenario and micro experiment with a
// one-line description.
func runList() int {
	fmt.Println("built-in scenarios (saexp -scenario NAME; also accepts a spec JSON file or - for stdin):")
	for _, s := range scenario.Builtins() {
		fmt.Printf("  %-12s %s\n", s.Name, s.Description)
	}
	fmt.Println()
	fmt.Println("micro experiments (saexp -exp NAME; no scenario spec — these measure primitive latencies):")
	for _, e := range [][2]string{
		{"table1", "Table 1: thread operation latencies (µs), kernel threads vs orig FastThreads"},
		{"table4", "Table 4: thread operation latencies (µs) with scheduler activations"},
		{"csablation", "§5.1 ablation: zero-overhead critical sections vs explicit flagging"},
		{"upcall", "§5.2: signal-wait latency through the kernel (upcall round trip)"},
		{"breakeven", "break-even work quantum where scheduler activations beat kernel threads"},
		{"all", "every experiment and application battery in sequence"},
	} {
		fmt.Printf("  %-12s %s\n", e[0], e[1])
	}
	return 0
}

// loadSpec resolves a scenario source: "-" for stdin, a built-in name, or
// a spec JSON file.
func loadSpec(src string) (scenario.Spec, error) {
	if src == "-" {
		return scenario.Read(os.Stdin)
	}
	if builtin, ok := scenario.Lookup(src); ok {
		return builtin, nil
	}
	return scenario.LoadFile(src)
}

// runScenario compiles and runs one declarative scenario: a built-in by
// name, a spec JSON file, or stdin. Exit code 0 only if every job (and, for
// chaos programs, every seed) passed.
func runScenario(src string, opt exp.RunOptions) int {
	sp, err := loadSpec(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pr, err := exp.RunSpec(os.Stdout, sp, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if pr.Sweep != nil && pr.Sweep.Failed > 0 {
		return 1
	}
	return 0
}

// runChaos executes the chaos sweep (or a single ablated demonstration run)
// and returns the process exit code: 0 only if every seed passed.
func runChaos(seeds, first int64, ablate string, opt exp.RunOptions) int {
	out := os.Stdout
	switch ablate {
	case "":
		pr, err := exp.RunSpec(out, scenario.ChaosSpec(first, seeds), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if pr.Sweep.Failed > 0 {
			return 1
		}
		return 0
	case "nogrant", "dropevent":
		mutate := func(k *core.Kernel) { k.AblateNoGrant = true }
		what := "rebalance grant phase disabled (AblateNoGrant)"
		if ablate == "dropevent" {
			mutate = func(k *core.Kernel) { k.AblateDropEvent = true }
			what = "delayed-event delivery dropped (AblateDropEvent)"
		}
		fmt.Fprintf(out, "chaos ablation demo: %s, seed %d\n", what, first)
		r := exp.RunChaosSeedAblated(first, mutate)
		if r.OK() {
			fmt.Fprintln(out, "UNEXPECTED: the broken kernel escaped the auditor")
			return 1
		}
		fmt.Fprintf(out, "caught: %d/%d threads finished, %d violation(s)\n", r.Finished, r.Total, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprint(out, v.Error())
		}
		fmt.Fprintln(out, "exit nonzero by design: the auditor caught the broken scheduler")
		return 1
	default:
		fmt.Fprintf(os.Stderr, "unknown ablation %q (want nogrant or dropevent)\n", ablate)
		return 2
	}
}

// Invocation modes, one per dispatch branch of run.
const (
	modeExp      = "-exp"
	modeTraceOut = "-trace-out"
	modeList     = "-list"
	modeScenario = "-scenario"
	modeChaos    = "-chaos"
)

// flagModes lists the flags that only some modes read, with those modes.
var flagModes = []struct {
	flag  string
	modes []string
}{
	{"seeds", []string{modeChaos}},
	{"first-seed", []string{modeChaos}},
	{"first", []string{modeChaos}},
	{"ablate", []string{modeChaos}},
}

// checkFlags rejects an explicitly set flag (set holds the names flag.Visit
// reports) that the selected mode would ignore; which is the -exp value.
func checkFlags(set map[string]bool, mode, which string) error {
	got := mode
	if mode == modeExp {
		got = "-exp " + which
	}
	for _, r := range flagModes {
		if set[r.flag] && !slices.Contains(r.modes, mode) {
			return fmt.Errorf("-%s applies only to %s, not %s", r.flag, strings.Join(r.modes, " or "), got)
		}
	}
	if set["csv"] && got != "-exp fig1" && got != "-exp fig2" {
		return fmt.Errorf("-csv applies only to -exp fig1 or -exp fig2, not %s", got)
	}
	return nil
}
