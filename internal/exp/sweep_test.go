package exp

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"schedact/internal/scenario"
)

// miniSweepSpec is a seconds-cheap multi-seed chaos spec (short storm) for
// sweep plumbing tests: verdicts and per-seed data are deterministic, only
// the sweep is far shorter than the canonical battery.
func miniSweepSpec(name string, first, seeds int64) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Workload: scenario.Workload{Kind: scenario.KindMix},
		Faults:   &scenario.Faults{FirstSeed: first, Seeds: seeds, StormMs: 50, DrainMs: 50},
	}
}

// TestSweepAggregateFailureCap pins failure attribution
// at and beyond maxFailedSeeds: the count stays exact while the seed list
// caps at the first maxFailedSeeds failures.
func TestSweepAggregateFailureCap(t *testing.T) {
	var ag SweepAggregate
	ag.First = 1
	failures := int64(maxFailedSeeds + 6)
	for seed := int64(1); seed <= failures+2; seed++ {
		rep := SeedReport{ChaosResult: ChaosResult{Seed: seed, Total: 3}}
		if seed > failures {
			rep.Finished = rep.Total // the last two seeds pass
		}
		ag.fold(&rep)
	}
	if ag.Done != failures+2 || ag.Failed != failures {
		t.Fatalf("done %d failed %d, want %d and %d (exact beyond the cap)", ag.Done, ag.Failed, failures+2, failures)
	}
	if len(ag.Seeds) != maxFailedSeeds {
		t.Fatalf("failed-seed list holds %d entries, cap is %d", len(ag.Seeds), maxFailedSeeds)
	}
	for i, s := range ag.Seeds {
		if s != int64(i+1) {
			t.Fatalf("attribution slot %d names seed %d, want %d (first failures win)", i, s, i+1)
		}
	}
	if ag.Runs != uint64(failures+2)*3 {
		t.Fatalf("thread total %d, want %d", ag.Runs, (failures+2)*3)
	}
}

// TestReplaySamplingKeepsAggregates pins the perf knob's safety contract:
// faults.replay moves only how many seeds get the replay-divergence check —
// the fleet fingerprint, verdicts, and histograms all come from the first
// run and must be identical across full, sampled, and off.
func TestReplaySamplingKeepsAggregates(t *testing.T) {
	run := func(mode string) *SweepAggregate {
		spec := miniSweepSpec("mini-replay", 1, 4)
		spec.Faults.Replay = mode
		pr, err := RunSpec(io.Discard, spec, RunOptions{Workers: 1})
		if err != nil {
			t.Fatalf("replay %q: %v", mode, err)
		}
		return pr.Sweep
	}
	full := run(scenario.ReplayFull)
	for _, mode := range []string{scenario.ReplayOff, "sample:2"} {
		got := run(mode)
		if got.Fleet != full.Fleet {
			t.Errorf("replay %q moved the fleet fingerprint: %016x vs %016x", mode, got.Fleet, full.Fleet)
		}
		if got.Done != full.Done || got.Failed != full.Failed || got.Runs != full.Runs ||
			!reflect.DeepEqual(got.Seeds, full.Seeds) {
			t.Errorf("replay %q moved verdicts: %+v vs %+v", mode, got, full)
		}
		if !reflect.DeepEqual(got.UpcallDispatch, full.UpcallDispatch) {
			t.Errorf("replay %q moved the first-run histograms", mode)
		}
	}
}

// TestReplaySeedDecision pins the sampling rule as a pure function of the
// seed — every fleet width must sample the same seeds.
func TestReplaySeedDecision(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		if !replaySeed(seed, 1) {
			t.Fatalf("full replay skipped seed %d", seed)
		}
		if replaySeed(seed, 0) {
			t.Fatalf("replay off replayed seed %d", seed)
		}
		if got, want := replaySeed(seed, 4), seed%4 == 0; got != want {
			t.Fatalf("sample:4 seed %d: replay=%v want %v", seed, got, want)
		}
	}
	if !strings.Contains(replayMode(1), "twice") ||
		!strings.Contains(replayMode(0), "off") ||
		!strings.Contains(replayMode(4), "divisible by 4") {
		t.Fatalf("replay header lines drifted: %q / %q / %q", replayMode(1), replayMode(0), replayMode(4))
	}
}
