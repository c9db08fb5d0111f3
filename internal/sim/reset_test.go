package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// resetWorkload drives one deterministic mini-run on e — a seed-keyed mix of
// scheduling, cancellation, coroutine sleeps, kills, and partial drives —
// and returns a summary of everything the Reset contract promises to rewind:
// the clock, the queue depth, the fired count, and every simulated stat.
// PhysicalSwitches is masked (it is a host observable and legitimately
// varies), as is MaxPending-independent pool state. A warm engine must
// produce the identical summary a fresh engine does.
func resetWorkload(e Engine, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	fired := 0
	var handles []Handle
	for i := 0; i < 40; i++ {
		switch rng.Intn(5) {
		case 0:
			handles = append(handles, e.After(Duration(rng.Intn(5000))*Microsecond, "evt", func() { fired++ }))
		case 1:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 2:
			naps := make([]Duration, 1+rng.Intn(3))
			for j := range naps {
				naps[j] = Duration(50+rng.Intn(500)) * Microsecond
			}
			c := e.Go("worker", func(c *Coroutine) {
				for _, d := range naps {
					c.Sleep(d)
				}
			})
			c.Unpark()
		case 3:
			// A coroutine left parked forever: Reset must unwind it.
			c := e.Go("parked", func(c *Coroutine) { c.Park("never woken") })
			if rng.Intn(2) == 0 {
				c.Unpark()
				e.RunFor(Microsecond) // let it reach the park
				if !c.Done() && !c.ResumeScheduled() && rng.Intn(2) == 0 {
					c.Destroy()
				}
			}
		case 4:
			e.RunFor(Duration(rng.Intn(2000)) * Microsecond)
		}
	}
	e.RunFor(10 * Millisecond)
	st := *e.Stats()
	st.PhysicalSwitches = 0
	return fmt.Sprintf("now=%v pending=%d fired=%d stats=%+v", e.Now(), e.Pending(), fired, st)
}

// TestResetLockstepFresh is the engine-level warm/cold oracle: one engine
// Reset between workloads must match, seed by seed, a fresh engine built per
// workload — same clock, same stats (free-list Reuses included: Reset drops
// the list, so warm first-allocations are cold-identical).
func TestResetLockstepFresh(t *testing.T) {
	warm := NewEngine(WithLabel("warm"))
	defer warm.Close()
	for seed := int64(0); seed < 8; seed++ {
		fresh := NewEngine(WithLabel("fresh"))
		want := resetWorkload(fresh, seed)
		fresh.Close()
		warm.Reset(WithLabel("fresh"))
		if got := resetWorkload(warm, seed); got != want {
			t.Fatalf("seed %d: warm engine diverged\nwarm:  %s\nfresh: %s", seed, got, want)
		}
	}
}

// TestResetAfterCoroutinePanic pins that an engine whose drive call unwound
// with *CoroutinePanic is fully recyclable: Reset clears the wreckage and
// the next run is byte-identical to a fresh engine's.
func TestResetAfterCoroutinePanic(t *testing.T) {
	pool := NewPool()
	defer pool.Close()
	warm := pool.NewEngine(WithLabel("warm"))
	defer warm.Close()

	c := warm.Go("bomb", func(c *Coroutine) {
		c.Sleep(Microsecond)
		panic("boom")
	})
	c.Unpark()
	func() {
		defer func() {
			if _, ok := recover().(*CoroutinePanic); !ok {
				t.Fatal("expected *CoroutinePanic")
			}
		}()
		warm.Run()
		t.Fatal("Run returned instead of panicking")
	}()

	fresh := NewEngine(WithLabel("fresh"))
	want := resetWorkload(fresh, 42)
	fresh.Close()
	warm.Reset(WithLabel("fresh"))
	if got := resetWorkload(warm, 42); got != want {
		t.Fatalf("post-panic warm engine diverged\nwarm:  %s\nfresh: %s", got, want)
	}
}

// TestResetTurnsHandlesInert pins the handle contract across Reset: handles
// to events drained by Reset go inert — Cancel reports false and cannot
// touch whatever record the new run put in the old slot.
func TestResetTurnsHandlesInert(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	stale := e.After(Millisecond, "doomed", func() { t.Fatal("drained event fired") })
	c := e.Go("parked", func(c *Coroutine) { c.Park("forever") })
	c.Unpark()
	e.RunFor(Microsecond)

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left now=%v pending=%d", e.Now(), e.Pending())
	}
	fired := false
	fresh := e.After(Microsecond, "fresh", func() { fired = true })
	if stale.Cancel() {
		t.Fatal("stale handle cancelled across Reset")
	}
	if !fresh.Active() {
		t.Fatal("stale Cancel removed the new run's event")
	}
	if !c.Done() {
		t.Fatal("live coroutine survived Reset")
	}
	e.Run()
	if !fired {
		t.Fatal("post-Reset event did not fire")
	}
}

// TestDoubleReset pins that resetting an idle engine twice is harmless and
// the engine still runs cold-identically.
func TestDoubleReset(t *testing.T) {
	warm := NewEngine()
	defer warm.Close()
	resetWorkload(warm, 7)
	warm.Reset(WithLabel("fresh"))
	warm.Reset(WithLabel("fresh"))
	fresh := NewEngine(WithLabel("fresh"))
	want := resetWorkload(fresh, 7)
	fresh.Close()
	if got := resetWorkload(warm, 7); got != want {
		t.Fatalf("double-Reset engine diverged\nwarm:  %s\nfresh: %s", got, want)
	}
}

// TestResetPanics pins the rejection case: Reset on a closed engine.
func TestResetPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	closed := NewEngine()
	closed.Close()
	expectPanic("Reset on closed engine", func() { closed.Reset() })
}

// FuzzEngineReset drives a warm engine and a procession of fresh engines in
// lockstep through fuzz-chosen workload seeds — interleaved with coroutine
// panics, double resets, and relabeling — and requires the warm engine's
// summary to match the fresh one's after every segment. This is the fuzz
// face of the tentpole's equivalence contract at the engine layer.
func FuzzEngineReset(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(99), []byte{3, 0, 4, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		if len(plan) > 12 {
			plan = plan[:12]
		}
		pool := NewPool()
		defer pool.Close()
		warm := pool.NewEngine(WithLabel("warm"))
		defer warm.Close()
		for i, op := range plan {
			segSeed := seed + int64(i)
			switch op % 5 {
			case 0, 1, 2: // plain recycled workload
				warm.Reset(WithLabel("seg"))
			case 3: // double reset before the workload
				warm.Reset()
				warm.Reset(WithLabel("seg"))
			case 4: // crash a coroutine, then recycle through the wreckage
				c := warm.Go("bomb", func(c *Coroutine) {
					c.Sleep(Microsecond)
					panic("fuzz boom")
				})
				c.Unpark()
				func() {
					defer func() {
						if _, ok := recover().(*CoroutinePanic); !ok {
							t.Fatal("expected *CoroutinePanic")
						}
					}()
					warm.Run()
				}()
				warm.Reset(WithLabel("seg"))
			}
			fresh := NewEngine(WithLabel("seg"))
			want := resetWorkload(fresh, segSeed)
			fresh.Close()
			if got := resetWorkload(warm, segSeed); got != want {
				t.Fatalf("segment %d (op %d, seed %d): warm engine diverged\nwarm:  %s\nfresh: %s",
					i, op%5, segSeed, got, want)
			}
		}
	})
}
