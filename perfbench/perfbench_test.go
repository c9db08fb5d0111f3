package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny returns a smoke-sized configuration of workload: two chaos seeds
// or a 64-body, one-step N-body problem, one set-up, one pass or cycle.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload:   workload,
		seed:       7,
		seconds:    0.001,
		trace:      trace,
		refDir:     t.TempDir(),
		chaosSeeds: 2,
		nbodyN:     64,
		nbodySteps: 1,
		setupReps:  1,
		maxPasses:  1,
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny executes cfg and returns the exit code, the parsed result line
// and the whole output.
func runTiny(t *testing.T, cfg config) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := execute(cfg, "", &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s\n%s", err, out.String(), errOut.String())
	}
	return code, r, out.String()
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n          int
		pct        float64
		value      float64
		beyond     int
		ok         bool
		noteSubstr string
	}{
		{n: 5, pct: 100, value: 5, ok: false, noteSubstr: "max of n=5"},
		{n: 19, pct: 100, value: 19, ok: false, noteSubstr: "max of n=19"},
		{n: 20, pct: 50, value: 10, beyond: 10, ok: true, noteSubstr: "p50 of n=20, 10 samples beyond"},
		{n: 39, pct: 50, value: 20, beyond: 19, ok: true},
		{n: 40, pct: 75, value: 30, beyond: 10, ok: true, noteSubstr: "p75 of n=40"},
		{n: 100, pct: 90, value: 90, beyond: 10, ok: true},
		{n: 199, pct: 90, value: 180, beyond: 19, ok: true},
		{n: 256, pct: 90, value: 231, beyond: 25, ok: true},
		{n: 10000, pct: 90, value: 9000, beyond: 1000, ok: true},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: got %+v, want pct %g value %g beyond %d ok %v", c.n, got, c.pct, c.value, c.beyond, c.ok)
		}
		if got.OK && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, got.Beyond)
		}
		if c.noteSubstr != "" && !strings.Contains(got.note(), c.noteSubstr) {
			t.Errorf("n=%d: note %q lacks %q", c.n, got.note(), c.noteSubstr)
		}
	}
	if got := tailOf(nil); got.N != 0 || got.OK {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestWrongReferenceFailsEveryJob(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := tiny(t, "chaos-mix", trace)
		cfg.wrongRef = true
		code, r, out := runTiny(t, cfg)
		if code == 0 {
			t.Errorf("trace=%v: exit code 0 with a wrong reference", trace)
		}
		if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
			t.Errorf("trace=%v: want every job failed, got correct=%v %d/%d\n%s", trace, r.Correct, r.Failed, r.Attempted, out)
		}
		if !strings.Contains(out, "fail_frac") || !strings.Contains(out, "                1 ratio") {
			t.Errorf("trace=%v: fail_frac is not 1:\n%s", trace, out)
		}
	}
	cfg := tiny(t, "nbody-multiprog", false)
	cfg.wrongRef = true
	if code, r, out := runTiny(t, cfg); code == 0 || r.Failed != r.Attempted {
		t.Errorf("nbody-multiprog: code %d, %d/%d failed\n%s", code, r.Failed, r.Attempted, out)
	}
}

func TestStoredReferenceIsRechecked(t *testing.T) {
	cfg := tiny(t, "nbody-paging", false)
	if code, _, out := runTiny(t, cfg); code != 0 || !strings.Contains(out, "reference: recorded") {
		t.Fatalf("first run: code %d\n%s", code, out)
	}
	entries, err := os.ReadDir(cfg.refDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one recorded reference, got %v (%v)", entries, err)
	}
	path := cfg.refDir + "/" + entries[0].Name()
	if err := os.WriteFile(path, []byte(`{"fingerprint":"0000000000000001","virtual_ns":1,"baseline_ns":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, r, out := runTiny(t, cfg)
	if code == 0 || r.Failed != r.Attempted || !strings.Contains(out, "REFERENCE MISMATCH") {
		t.Errorf("a changed recorded reference must fail every job: code %d, %d/%d\n%s", code, r.Failed, r.Attempted, out)
	}
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			code, r, out := runTiny(t, tiny(t, w, trace))
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: code %d correct=%v %d/%d\n%s", w, trace, code, r.Correct, r.Failed, r.Attempted, out)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json %q", w, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.Name, got.Value)
				}
			}
			for _, line := range []string{"host: cpu", "fail_frac", "peak_rss_mb"} {
				if !strings.Contains(out, line) {
					t.Errorf("%s trace=%v: report lacks %q", w, trace, line)
				}
			}
		}
	}
}

func TestEveryFiredKindMapsToALayer(t *testing.T) {
	for _, w := range workloadNames {
		cfg := tiny(t, w, true)
		var out bytes.Buffer
		cfg.log = &out
		rep, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range rep.Notes {
			if strings.Contains(n, "UNMAPPED") {
				t.Errorf("%s: %s", w, n)
			}
		}
		fired := 0.0
		for _, m := range rep.Metrics {
			if strings.HasSuffix(m.Name, "_ms") && !strings.HasPrefix(m.Name, "exp.job_ms") {
				fired += m.Value
			}
			if m.Name == "other.fire_ms" && m.Value != 0 {
				t.Errorf("%s: %g ms per job charged to unmapped kinds", w, m.Value)
			}
		}
		if fired <= 0 {
			t.Errorf("%s: traced run charged no host time to any layer", w)
		}
	}
}

func TestLayerNameFoldsPerSpaceCounters(t *testing.T) {
	for in, want := range map[string]string{
		"uthread.nbody0.switches":  "uthread.switches",
		"uthread.soak2.steals#2":   "uthread.steals",
		"kernel.dispatches#3":      "kernel.dispatches",
		"core.upcalls":             "core.upcalls",
		"uthread.app.spin_wait_us": "uthread.spin_wait_us",
	} {
		if got := layerName(in); got != want {
			t.Errorf("layerName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHostDifferenceIsReported(t *testing.T) {
	a := hostFacts{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	b := a
	b.Commit = "b"
	if d := a.differs(b); d != "" {
		t.Errorf("a different commit is not a different host: %q", d)
	}
	b.NProc = 4
	if d := a.differs(b); !strings.Contains(d, "nproc 2 vs 4") {
		t.Errorf("differs = %q", d)
	}
}

func TestPerJobTakesBestPassThenMedianOverSeeds(t *testing.T) {
	at := func(key int, wallMs float64, events uint64) jobSample {
		return jobSample{cost: cost{wall: time.Duration(wallMs * float64(time.Millisecond))}, key: key, events: events}
	}
	// Three jobs over two passes; jobs 0 and 1 are one program job (key 0)
	// at two seeds, job 2 is its own.
	byJob := [][]jobSample{
		{at(0, 10, 100), at(0, 8, 100)},
		{at(0, 20, 100), at(0, 30, 100)},
		{at(1, 50, 500), at(1, 40, 500)},
	}
	got := perJob(byJob)
	if len(got) != 2 {
		t.Fatalf("want 2 job keys, got %d", len(got))
	}
	if got[0].wall != 14 || got[1].wall != 40 { // median(8, 20); best(50, 40)
		t.Errorf("walls %g, %g; want 14, 40", got[0].wall, got[1].wall)
	}
	if got[1].rate != 500/0.040 {
		t.Errorf("rate %g, want events over the best pass's seconds", got[1].rate)
	}
}

func TestCompareNamesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	a := &report{Workload: "chaos-mix", Host: hostFacts{CPU: "x", NProc: 2}, Metrics: []metric{{Name: "job_ms.p50", Unit: "ms", Value: 10}}}
	b := &report{Workload: "chaos-mix", Host: hostFacts{CPU: "y", NProc: 2}, Metrics: []metric{{Name: "job_ms.p50", Unit: "ms", Value: 11}}}
	if err := a.save(dir + "/a.json"); err != nil {
		t.Fatal(err)
	}
	if err := b.save(dir + "/b.json"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := cli([]string{"--compare", dir + "/a.json", dir + "/b.json"}, &out, &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, want := range []string{"DIFFERENT HOSTS", `cpu "x" vs "y"`, "+10.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
