package exp

import (
	"os"
	"strconv"
	"testing"

	"schedact/internal/core"
)

// warmSeeds reports how many seeds the warm-vs-cold oracle sweeps: 8 by
// default (tier-1 latency), the full sweep width with
// SCHEDACT_WARM_SEEDS=64 (the CI chaos job pins all 64).
func warmSeeds(t *testing.T) int64 {
	if s := os.Getenv("SCHEDACT_WARM_SEEDS"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("bad SCHEDACT_WARM_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 3
	}
	return 8
}

// TestWarmContextMatchesCold is the tentpole's equivalence oracle: one warm
// RunContext recycled across every sweep seed must produce, for each seed,
// the byte-identical fingerprint (and verdict) of a cold run that builds
// the whole stack from scratch. Any Reset seam that leaks state between
// runs — a counter not zeroed, an event surviving, a pool reuse that is
// metered, a registry name drifting — lands here as a fingerprint diff on
// the first affected seed.
func TestWarmContextMatchesCold(t *testing.T) {
	n := warmSeeds(t)
	rc := NewRunContext()
	defer rc.Close()
	for seed := int64(1); seed <= n; seed++ {
		warm := rc.RunSeed(seed)
		cold := RunChaosSeed(seed)
		if warm.Fingerprint != cold.Fingerprint || warm.Replay != cold.Replay {
			t.Fatalf("seed %d: warm fingerprints %v/%v != cold %v/%v",
				seed, warm.Fingerprint, warm.Replay, cold.Fingerprint, cold.Replay)
		}
		if warm.Finished != cold.Finished || warm.Total != cold.Total ||
			warm.End != cold.End || warm.Preempts != cold.Preempts {
			t.Fatalf("seed %d: warm result drifted: %+v vs cold %+v", seed, warm, cold)
		}
		if len(warm.Violations) != len(cold.Violations) {
			t.Fatalf("seed %d: warm %d violations vs cold %d",
				seed, len(warm.Violations), len(cold.Violations))
		}
	}
}

// TestWarmContextSurvivesFailedRun pins that a run which ends mid-storm —
// an ablated kernel tripping the auditor, threads unfinished, injector
// still armed — leaves the warm context fully recyclable: the next seeds
// on the same context still match cold runs byte for byte.
func TestWarmContextSurvivesFailedRun(t *testing.T) {
	rc := NewRunContext()
	defer rc.Close()
	_, broken := rc.runOnce(1, func(k *core.Kernel) { k.AblateNoGrant = true })
	if len(broken.Violations) == 0 {
		t.Fatal("ablated warm run escaped the auditor")
	}
	for seed := int64(2); seed <= 4; seed++ {
		warm := rc.RunSeed(seed)
		cold := RunChaosSeed(seed)
		if warm.Fingerprint != cold.Fingerprint {
			t.Fatalf("seed %d after a failed run: warm %v != cold %v",
				seed, warm.Fingerprint, cold.Fingerprint)
		}
	}
}

// TestWarmRunSteadyStateAllocs is the bench-smoke allocation gate for the
// warm path: a recycled RunContext must run a full chaos seed well under
// half a cold run's allocation bill (~29k allocs/run at the time the gate
// was set; steady-state warm measures ~6k). The ceiling has slack for
// workload-shape variance across seeds, but a construction leak on the
// recycle path — rebuilding the kernel, the pool, or a trace consumer per
// run — blows straight through it.
func TestWarmRunSteadyStateAllocs(t *testing.T) {
	rc := NewRunContext()
	defer rc.Close()
	rc.runOnce(1, nil) // absorb first-run warmup (pool spin-up, arena growth)
	seed := int64(0)
	avg := testing.AllocsPerRun(8, func() {
		seed++
		rc.runOnce(seed, nil)
	})
	const ceiling = 12000
	if avg > ceiling {
		t.Fatalf("warm run allocates %.0f/run steady-state, ceiling %d", avg, ceiling)
	}
	t.Logf("warm run steady-state allocations: %.0f/run (ceiling %d)", avg, ceiling)
}
