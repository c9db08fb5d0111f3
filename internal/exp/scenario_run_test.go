package exp

import (
	"io"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"schedact/internal/scenario"
	"schedact/internal/sim"
)

// TestScenarioChaosMatchesPinnedTable diffs the scenario pipeline against
// the pinned fingerprint table: the canonical chaos spec, compiled and run
// through RunSpec, must produce a rolling fleet fingerprint equal to
// folding TestFingerprintsPinned's per-seed table in seed order. This is
// the `make scenarios` gate's oracle — a spec-compiler change that altered
// job ordering, seed derivation, or the warm context's shape lands here
// even if every battery test were rewritten on top of the same bug.
func TestScenarioChaosMatchesPinnedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs are slow in -short mode")
	}
	n := int64(len(pinnedFingerprints))
	var want uint64
	for seed := int64(1); seed <= n; seed++ {
		fp, err := strconv.ParseUint(pinnedFingerprints[seed], 16, 64)
		if err != nil {
			t.Fatalf("pinned fingerprint for seed %d is not hex: %v", seed, err)
		}
		want = fnvFold(want, uint64(seed), fp)
	}
	pr, err := RunSpec(io.Discard, scenario.ChaosSpec(1, n), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Sweep == nil || pr.Sweep.Failed != 0 || pr.Sweep.Done != n {
		t.Fatalf("canonical chaos spec: sweep %+v", pr.Sweep)
	}
	if pr.Fingerprint != want {
		t.Errorf("compiled chaos spec fingerprint %016x != pinned-table fold %016x — "+
			"the scenario pipeline drifted from the pinned per-seed fingerprints", pr.Fingerprint, want)
	}
}

// miniMixSpec is a seconds-cheap chaos spec (one seed, 50ms storm) for
// checkpoint-plumbing tests; the verdict does not matter, only that a run
// completes and writes its checkpoint.
func miniMixSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Workload: scenario.Workload{Kind: scenario.KindMix},
		Faults:   &scenario.Faults{FirstSeed: 1, Seeds: 1, StormMs: 50, DrainMs: 50},
	}
}

// TestScenarioCheckpointRejectsForeignSpec pins the resume-safety contract:
// a run pointed at a checkpoint written by a *different* spec must refuse to
// run rather than resume (or silently overwrite) someone else's progress.
func TestScenarioCheckpointRejectsForeignSpec(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "scenario.json")
	if _, err := RunSpec(io.Discard, miniMixSpec("mini-a"), RunOptions{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatalf("seeding the checkpoint: %v", err)
	}
	_, err := RunSpec(io.Discard, miniMixSpec("mini-b"), RunOptions{Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("a foreign spec's checkpoint was accepted")
	}
	if !strings.Contains(err.Error(), "different spec") || !strings.Contains(err.Error(), "mini-a") {
		t.Fatalf("rejection should name the conflict and the writing spec, got: %v", err)
	}
	// An application spec against the same file is rejected identically.
	app := miniAppSpec("mini-c")
	if _, err := RunSpec(io.Discard, app, RunOptions{Workers: 1, Checkpoint: ck}); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("app program accepted a chaos spec's checkpoint: %v", err)
	}
}

// miniAppSpec is a fast four-job N-body scenario (tiny problem shape) for
// app-program checkpoint tests.
func miniAppSpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Workload: scenario.Workload{Kind: scenario.KindNbody, Nbody: &scenario.NbodyOverrides{N: 16, Steps: 2}},
		Machine:  scenario.Machine{CPUs: 2},
		Binding: scenario.Binding{
			Systems: []string{scenario.SysOrigFT, scenario.SysNewFT},
			Procs:   []int{1, 2},
		},
	}
}

// TestScenarioHonorsMachineCPUs pins the machine-shape contract for the
// uniprogrammed default-machine cell (single copy, default costs, space
// policy): the compiled job must simulate the spec's machine.cpus, not the
// fast-path launcher's hardcoded 6-CPU Firefly. The workload runs long
// enough for the periodic daemon to fire, so a cramped machine measurably
// slows the application and an ignored CPU count shows up as equal timings.
func TestScenarioHonorsMachineCPUs(t *testing.T) {
	spec := func(cpus int) scenario.Spec {
		return scenario.Spec{
			Name:     "cpu-shape",
			Workload: scenario.Workload{Kind: scenario.KindNbody, Nbody: &scenario.NbodyOverrides{N: 48, Steps: 3}},
			Machine:  scenario.Machine{CPUs: cpus},
			Binding: scenario.Binding{
				Systems: []string{scenario.SysNewFT},
				Procs:   []int{2},
			},
		}
	}
	run := func(cpus int) sim.Duration {
		pr, err := RunSpec(io.Discard, spec(cpus), RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Outcomes) != 1 || len(pr.Outcomes[0].Els) != 1 {
			t.Fatalf("cpus=%d: unexpected outcomes %+v", cpus, pr.Outcomes)
		}
		return pr.Outcomes[0].Els[0]
	}
	cramped, roomy := run(2), run(MachineCPUs)
	if cramped == roomy {
		t.Fatalf("machine.cpus ignored: 2-CPU and %d-CPU machines both measured %v", MachineCPUs, cramped)
	}
	if cramped < roomy {
		t.Errorf("2-CPU machine (%v) should be slower than the %d-CPU machine (%v)", cramped, MachineCPUs, roomy)
	}
}

// TestScenarioAppCheckpointResume pins checkpoint/resume for application
// programs (the satellite generalizing the chaos sweep's resume to any
// compiled sweep): a finished run's checkpoint makes a re-invocation run
// zero jobs yet report the identical program fingerprint and outcomes.
func TestScenarioAppCheckpointResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "app.json")
	var first, resumed strings.Builder
	pr1, err := RunSpec(&first, miniAppSpec("mini-app"), RunOptions{Workers: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	jobLine := regexp.MustCompile(` w\d`) // the per-job worker column
	if len(pr1.Outcomes) != 4 || len(jobLine.FindAllString(first.String(), -1)) != 4 {
		t.Fatalf("first run should execute all 4 jobs:\n%s", first.String())
	}
	pr2, err := RunSpec(&resumed, miniAppSpec("mini-app"), RunOptions{Workers: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resuming from checkpoint") ||
		jobLine.MatchString(resumed.String()) {
		t.Fatalf("resumed run re-ran finished jobs:\n%s", resumed.String())
	}
	if pr2.Fingerprint != pr1.Fingerprint {
		t.Fatalf("resumed fingerprint %016x != first run %016x", pr2.Fingerprint, pr1.Fingerprint)
	}
	if len(pr2.Outcomes) != len(pr1.Outcomes) {
		t.Fatalf("resumed run restored %d outcomes, want %d", len(pr2.Outcomes), len(pr1.Outcomes))
	}
	for i := range pr1.Outcomes {
		if len(pr2.Outcomes[i].Els) != len(pr1.Outcomes[i].Els) ||
			pr2.Outcomes[i].Els[0] != pr1.Outcomes[i].Els[0] {
			t.Fatalf("outcome %d drifted across resume: %+v vs %+v", i, pr2.Outcomes[i], pr1.Outcomes[i])
		}
	}

	// A fresh run without the checkpoint reproduces the same fingerprint:
	// resume identity and from-scratch identity agree.
	pr3, err := RunSpec(io.Discard, miniAppSpec("mini-app"), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr3.Fingerprint != pr1.Fingerprint {
		t.Fatalf("width-1 fresh run fingerprint %016x != checkpointed run %016x", pr3.Fingerprint, pr1.Fingerprint)
	}
}
