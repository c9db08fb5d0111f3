package exp

import (
	"io"
	"testing"

	"schedact/internal/scenario"
)

// BenchmarkChaosSweep measures end-to-end chaos-battery throughput — full
// fault-injected runs, auditor armed, replay-checked — through the fleet
// harness at pool width 1. It is the macro view of the event-queue work:
// each seed is two complete simulations dominated by schedule/fire traffic.
// ReportMetric surfaces seeds/sec, the number the sweep's wall-clock scales
// by. It is a micro probe; perfbench's chaos-mix workload is the measured
// end-to-end number.
func BenchmarkChaosSweep(b *testing.B) {
	const seedsPer = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if failed := ChaosSweep(io.Discard, 1, seedsPer, 1); failed != 0 {
			b.Fatalf("%d chaos seeds failed", failed)
		}
	}
	b.ReportMetric(float64(seedsPer)*float64(b.N)/b.Elapsed().Seconds(), "seeds/sec")
}

// BenchmarkChaosSweepSampled is BenchmarkChaosSweep with the replay check
// off (faults.replay: off) through the scenario pipeline: each seed runs
// once instead of twice, so seeds/sec should roughly double — the per-run
// hot-path cut a wide sweep buys with the spec knob. Comparing this
// benchmark's seeds/sec against BenchmarkChaosSweep's is the honest cost of
// the replay-divergence check.
func BenchmarkChaosSweepSampled(b *testing.B) {
	const seedsPer = 4
	spec := scenario.ChaosSpec(1, seedsPer)
	spec.Faults.Replay = scenario.ReplayOff
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := RunSpec(io.Discard, spec, RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if pr.Sweep.Failed != 0 {
			b.Fatalf("%d chaos seeds failed", pr.Sweep.Failed)
		}
	}
	b.ReportMetric(float64(seedsPer)*float64(b.N)/b.Elapsed().Seconds(), "seeds/sec")
}

// BenchmarkWarmChaosRun measures the steady-state warm path: one RunContext,
// recycled for every iteration, each iteration one full fault-injected run
// (seed varies so the workload shape does too). This is the fleet worker's
// inner loop; its allocs/op is the number the bench-smoke steady-state
// allocation gate (TestWarmRunSteadyStateAllocs) holds a ceiling over —
// construction cost is excluded by building the context before the timer.
func BenchmarkWarmChaosRun(b *testing.B) {
	rc := NewRunContext()
	defer rc.Close()
	rc.runOnce(1, nil) // absorb first-run warmup (pool spin-up, arena growth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, r := rc.runOnce(int64(1+i%16), nil); len(r.Violations) != 0 {
			b.Fatalf("seed %d: %d violations", r.Seed, len(r.Violations))
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}
