package fleet

import (
	"sync/atomic"
	"testing"
	"time"
)

// Results must arrive in job order with every job present exactly once,
// whatever the pool width or completion order.
func TestRunOrderedDelivery(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 57
		var got []int
		Run(workers, n, func(job, worker int) int {
			if job%3 == 0 {
				time.Sleep(time.Duration(job%5) * time.Millisecond)
			}
			return job * job
		}, func(r Result[int]) {
			if r.Value != r.Job*r.Job {
				t.Fatalf("workers=%d: job %d delivered value %d", workers, r.Job, r.Value)
			}
			got = append(got, r.Job)
		})
		if len(got) != n {
			t.Fatalf("workers=%d: delivered %d of %d results", workers, len(got), n)
		}
		for i, j := range got {
			if i != j {
				t.Fatalf("workers=%d: delivery out of order at %d: got job %d", workers, i, j)
			}
		}
	}
}

// Worker IDs must stay within the pool bounds, and with more jobs than
// workers every result must carry a valid attribution.
func TestRunWorkerAttribution(t *testing.T) {
	const workers, n = 4, 32
	seen := make(map[int]int)
	Run(workers, n, func(job, worker int) int { return worker }, func(r Result[int]) {
		if r.Worker < 0 || r.Worker >= workers {
			t.Fatalf("job %d attributed to out-of-range worker %d", r.Job, r.Worker)
		}
		if r.Value != r.Worker {
			t.Fatalf("job %d: callback saw worker %d but result says %d", r.Job, r.Value, r.Worker)
		}
		seen[r.Worker]++
	})
	total := 0
	for _, c := range seen {
		total += c
	}
	if total != n {
		t.Fatalf("attributed %d jobs, want %d", total, n)
	}
}

// Map must return values indexed by job, identically for any pool width —
// the determinism contract the sweeps rely on.
func TestMapDeterministicAcrossWidths(t *testing.T) {
	f := func(job, _ int) int { return job*31 + 7 }
	want := Map(1, 40, f)
	for _, workers := range []int{2, 4, 16} {
		got := Map(workers, 40, f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Map[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// A worker panic must surface on the caller's goroutine, after in-flight
// jobs drain, and must not leave goroutines stuck.
func TestRunPanicPropagates(t *testing.T) {
	var launched atomic.Int64
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	Run(4, 64, func(job, worker int) int {
		launched.Add(1)
		if job == 5 {
			panic("boom")
		}
		return job
	}, func(Result[int]) {})
	t.Fatal("Run returned instead of panicking")
}

// Degenerate inputs: zero jobs is a no-op, and workers <= 0 falls back to
// the default width.
func TestRunDegenerate(t *testing.T) {
	Run(4, 0, func(job, worker int) int { t.Fatal("ran a job"); return 0 }, func(Result[int]) {
		t.Fatal("emitted a result")
	})
	n := 0
	Run(-1, 3, func(job, worker int) int { return job }, func(r Result[int]) { n++ })
	if n != 3 {
		t.Fatalf("delivered %d of 3 results with default workers", n)
	}
}
