// Command perfbench is the repository's benchmark: it drives the simulator
// through its public entry points on three named workloads, checks every
// job's simulated outputs against a reference, and prints host-time
// metrics — end to end with tracing off, or per layer from a separate
// traced run.
//
//	bash perfbench/run.sh --workload chaos-mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 when every job matched its reference, 1 when any job
// failed (the JSON line is still printed), and 2 on a usage or set-up
// error (no JSON line). See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	refDir   string // stored references for non-canonical seeds ("" = none)

	// Size knobs for the package's own smoke tests; zero keeps the
	// canonical workload.
	chaosSeeds int  // seeds per chaos-mix pass (default 64)
	nbodyN     int  // N-body bodies
	nbodySteps int  // N-body timesteps
	setupReps  int  // set-up repetitions (default 3)
	maxPasses  int  // stop after this many passes (0 = time-bound only)
	wrongRef   bool // corrupt the reference (tests the gate)
	log        io.Writer
}

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"chaos-mix", "nbody-paging", "nbody-multiprog"}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs one invocation and returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: faults.first_seed for chaos-mix, workload.nbody.seed for the N-body workloads (1 is canonical)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure for")
	fs.StringVar(&cfg.refDir, "refdir", "", "directory recording references for non-canonical seeds (re-checked on later runs)")
	out := fs.String("out", "", "also write the full report (metrics, sample counts, host facts) as JSON to this file")
	compare := fs.Bool("compare", false, "compare two report files written with -out (positional arguments) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs exactly two report files")
			return 2
		}
		if err := compareReports(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	switch *traceFlag {
	case 0, 1:
		cfg.trace = *traceFlag == 1
	default:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if cfg.seed < 0 {
		fmt.Fprintln(stderr, "perfbench: -seed must be >= 0")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	return execute(cfg, *out, stdout, stderr)
}

// execute runs one parsed invocation, prints its report (the JSON result
// line last) and returns the exit code: 1 when any job failed its
// reference check, 2 when the run could not be made.
func execute(cfg config, out string, stdout, stderr io.Writer) int {
	cfg.log = stdout
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep.print(stdout)
	if out != "" {
		if err := rep.save(out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// run executes one invocation and assembles its report.
func run(cfg config) (*report, error) {
	var w workload
	switch cfg.workload {
	case "chaos-mix":
		w = newChaosMix(cfg)
	case "nbody-paging", "nbody-multiprog":
		w = newNbody(cfg)
	case "":
		return nil, errors.New("-workload is required (" + strings.Join(workloadNames, ", ") + ")")
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	rep := &report{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Host:     gatherHost(),
	}
	fmt.Fprintf(cfg.log, "perfbench: workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(cfg.log, "host: %s\n", rep.Host)
	var err error
	if cfg.trace {
		err = runTraced(cfg, w, rep)
	} else {
		err = runUntraced(cfg, w, rep)
	}
	w.close()
	if err != nil {
		return nil, err
	}
	// Peak RSS is set by the heaviest job a run holds — on chaos-mix, by
	// whichever rare seed of the block has the largest live heap — and
	// fail_frac is 0 on every good run, so neither can carry a relative
	// bound: both are printed for the reader but kept off the result line,
	// whose failed/attempted fields gate correctness.
	rep.info("peak_rss_mb", "MiB", peakRSSMB(), "whole process")
	rep.info("fail_frac", "ratio", rep.failFrac(), fmt.Sprintf("%d failed of %d attempted", rep.Failed, rep.Attempted))
	return rep, nil
}

// metric is one reported value. Note carries what the JSON line cannot:
// sample counts, the tail's percentile, how a value was derived. An Info
// metric is printed but kept out of the JSON result line, which carries
// exactly the BENCHMARK.json metrics.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
	Info  bool    `json:"info,omitempty"`
}

// report is one invocation's result.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Host      hostFacts `json:"host"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   []metric  `json:"metrics"`
	Notes     []string  `json:"notes,omitempty"`
}

// add appends a metric.
func (r *report) add(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// info appends a metric that is printed but not part of the result line.
func (r *report) info(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Note: note, Info: true})
}

// notef records a note: a failed check, a dropped ladder rung, how a
// value was derived.
func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failFrac is failed jobs over attempted jobs.
func (r *report) failFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the human-readable report, then the JSON result line last.
func (r *report) print(w io.Writer) {
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-26s %16.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Info {
			line += "  (informational)"
		}
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.Metrics))
	for _, m := range r.Metrics {
		if !m.Info {
			ms[m.Name] = jm{Value: m.Value, Unit: m.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, ms})
	fmt.Fprintln(w, string(line))
}

// save writes the full report as indented JSON.
func (r *report) save(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// compareReports prints two saved reports side by side, metric by metric,
// and says so when they came from different hosts.
func compareReports(w io.Writer, pathA, pathB string) error {
	load := func(p string) (*report, error) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("read report: %w", err)
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  %s seed %d trace %v\n   %s\n", pathA, a.Workload, a.Seed, a.Trace, a.Host)
	fmt.Fprintf(w, "B: %s  %s seed %d trace %v\n   %s\n", pathB, b.Workload, b.Seed, b.Trace, b.Host)
	if d := a.Host.differs(b.Host); d != "" {
		fmt.Fprintf(w, "DIFFERENT HOSTS (%s): host time is not comparable between these reports\n", d)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintln(w, "reports measure different workloads or passes")
	}
	bv := map[string]metric{}
	for _, m := range b.Metrics {
		bv[m.Name] = m
	}
	names := make([]string, 0, len(a.Metrics))
	av := map[string]metric{}
	for _, m := range a.Metrics {
		av[m.Name] = m
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := av[n]
		mb, ok := bv[n]
		if !ok {
			fmt.Fprintf(w, "  %-26s %14.6g %-6s  (missing in B)\n", n, ma.Value, ma.Unit)
			continue
		}
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "  %-26s %14.6g -> %-14.6g %-6s %s\n", n, ma.Value, mb.Value, ma.Unit, change)
	}
	return nil
}
