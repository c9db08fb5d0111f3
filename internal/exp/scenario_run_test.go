package exp

import (
	"io"
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

// miniAppSpec is a fast four-job N-body scenario (tiny problem shape).
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

// TestScenarioAppWidthIndependent pins that an application program's
// outcomes and rolling fingerprint fold in job order: a width-2 run and a
// width-1 run of the same spec execute every job and agree exactly.
func TestScenarioAppWidthIndependent(t *testing.T) {
	var wide strings.Builder
	pr1, err := RunSpec(&wide, miniAppSpec("mini-app"), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobLine := regexp.MustCompile(` w\d`) // the per-job worker column
	if len(pr1.Outcomes) != 4 || len(jobLine.FindAllString(wide.String(), -1)) != 4 {
		t.Fatalf("run should execute all 4 jobs:\n%s", wide.String())
	}
	pr2, err := RunSpec(io.Discard, miniAppSpec("mini-app"), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Fingerprint != pr1.Fingerprint {
		t.Fatalf("width-1 fingerprint %016x != width-2 %016x", pr2.Fingerprint, pr1.Fingerprint)
	}
	for i := range pr1.Outcomes {
		if len(pr2.Outcomes[i].Els) != len(pr1.Outcomes[i].Els) ||
			pr2.Outcomes[i].Els[0] != pr1.Outcomes[i].Els[0] {
			t.Fatalf("outcome %d differs across widths: %+v vs %+v", i, pr2.Outcomes[i], pr1.Outcomes[i])
		}
	}
}
