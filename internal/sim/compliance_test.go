package sim

import "testing"

// engineUnderTest is one Engine implementation wired into the compliance
// suite. run builds an engine with opts, hands it to scenario, and tears it
// down. The replay variant runs scenario twice: once on a recorded reference
// engine, then again on a ReplayEngine seeded with that recording — so every
// compliance scenario doubles as a lockstep record/replay check.
type engineUnderTest struct {
	name string
	run  func(t *testing.T, opts []Option, scenario func(e Engine))
}

// enginesUnderTest lists every Engine implementation. A new engine joins the
// DESIGN.md §6 checklist by adding itself here (and to the fingerprint pins
// if it is meant to reproduce reference timelines).
var enginesUnderTest = []engineUnderTest{
	{"seq", func(t *testing.T, opts []Option, scenario func(e Engine)) {
		e := NewEngine(opts...)
		defer e.Close()
		scenario(e)
	}},
	{"seq-pooled", func(t *testing.T, opts []Option, scenario func(e Engine)) {
		p := NewPool()
		defer p.Close()
		e := p.NewEngine(opts...)
		defer e.Close()
		scenario(e)
	}},
	{"replay", func(t *testing.T, opts []Option, scenario func(e Engine)) {
		ref := NewEngine(opts...)
		rec := Record(ref)
		scenario(ref)
		ref.Close()
		e := NewReplayEngine(rec.Recording(), opts...)
		defer e.Close()
		scenario(e)
	}},
}

// onEveryEngine runs scenario as a subtest per engine implementation.
func onEveryEngine(t *testing.T, opts []Option, scenario func(t *testing.T, e Engine)) {
	t.Helper()
	for _, eut := range enginesUnderTest {
		eut := eut
		t.Run(eut.name, func(t *testing.T) {
			eut.run(t, opts, func(e Engine) { scenario(t, e) })
		})
	}
}

func TestComplianceEventOrderAndClock(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		var fired []string
		var times []Time
		log := func(name string) func() {
			return func() {
				fired = append(fired, name)
				times = append(times, e.Now())
			}
		}
		e.At(Time(30*Microsecond), "c", log("c"))
		e.At(Time(10*Microsecond), "a", log("a"))
		e.At(Time(10*Microsecond), "b", log("b")) // same time: seq breaks the tie
		e.After(20*Microsecond, "mid", log("mid"))
		if e.Pending() != 4 {
			t.Fatalf("Pending = %d, want 4", e.Pending())
		}
		e.Run()
		want := []string{"a", "b", "mid", "c"}
		if len(fired) != len(want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("fired %v, want %v", fired, want)
			}
		}
		for i, at := range []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)} {
			if times[i] != at {
				t.Fatalf("event %q fired at %v, want %v", want[i], times[i], at)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending after Run = %d, want 0", e.Pending())
		}
	})
}

func TestComplianceRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		e.At(Time(5*Microsecond), "ev", func() {})
		e.RunUntil(Time(50 * Microsecond))
		if e.Now() != Time(50*Microsecond) {
			t.Fatalf("Now = %v after RunUntil(50µs), want 50µs", e.Now())
		}
	})
}

func TestComplianceStepFiresOneEvent(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		n := 0
		e.At(Time(Microsecond), "a", func() { n++ })
		e.At(Time(2*Microsecond), "b", func() { n++ })
		if !e.Step() || n != 1 || e.Now() != Time(Microsecond) {
			t.Fatalf("after first Step: n=%d now=%v", n, e.Now())
		}
		if !e.Step() || n != 2 {
			t.Fatalf("after second Step: n=%d", n)
		}
		if e.Step() {
			t.Fatal("Step on an empty queue reported true")
		}
	})
}

func TestComplianceCancelSuppressesEvent(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		// The recorded reference run cancels this event, so the tape never
		// contains it and the replay must cancel it the same way.
		h := e.At(Time(10*Microsecond), "doomed", func() { t.Error("cancelled event fired") })
		e.At(Time(20*Microsecond), "after", func() {})
		if !h.Active() {
			t.Fatal("handle inactive before fire")
		}
		if !h.Cancel() {
			t.Fatal("Cancel reported false")
		}
		if h.Active() || h.Cancel() {
			t.Fatal("handle still live after Cancel")
		}
		e.Run()
		if got := e.Stats().Cancels; got != 1 {
			t.Fatalf("Stats().Cancels = %d, want 1", got)
		}
	})
}

func TestComplianceCoroutineSleepAndHandoff(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		var log []Time
		c := e.Go("sleeper", func(c *Coroutine) {
			for i := 0; i < 3; i++ {
				c.Sleep(10 * Microsecond)
				log = append(log, e.Now())
			}
		})
		c.Unpark()
		e.Run()
		if len(log) != 3 {
			t.Fatalf("woke %d times, want 3", len(log))
		}
		for i, at := range []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)} {
			if log[i] != at {
				t.Fatalf("wake %d at %v, want %v", i, log[i], at)
			}
		}
		if !c.Done() {
			t.Fatal("coroutine not Done after Run")
		}
	})
}

func TestComplianceCurrentInsideBodies(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		var inBody, inEvent bool
		c := e.Go("c", func(c *Coroutine) { inBody = e.Current() == c })
		e.After(Microsecond, "ev", func() { inEvent = e.Current() == nil })
		c.Unpark()
		e.Run()
		if !inBody || !inEvent {
			t.Fatalf("Current: inBody=%v inEvent=%v", inBody, inEvent)
		}
	})
}

func TestComplianceLabelAndOptions(t *testing.T) {
	onEveryEngine(t, []Option{WithLabel("compliance")}, func(t *testing.T, e Engine) {
		if e.Label() != "compliance" {
			t.Fatalf("Label = %q, want compliance", e.Label())
		}
		if e.Metrics() == nil || e.Stats() == nil || e.Hooks() == nil {
			t.Fatal("nil Metrics/Stats/Hooks")
		}
	})
}

func TestComplianceCloseUnwindsAndIsIdempotent(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		cleaned := false
		c := e.Go("c", func(c *Coroutine) {
			defer func() { cleaned = true }()
			c.Park("forever")
		})
		c.Unpark()
		e.RunUntil(Time(Microsecond))
		e.Close()
		e.Close()
		if !cleaned || !c.Done() {
			t.Fatalf("after Close: cleaned=%v done=%v", cleaned, c.Done())
		}
	})
}

func TestComplianceScheduleOnClosedEnginePanics(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		e.Close()
		defer func() {
			if recover() == nil {
				t.Fatal("At on closed engine did not panic")
			}
		}()
		e.At(Time(Microsecond), "ev", func() {})
	})
}

func TestCompliancePastSchedulePanics(t *testing.T) {
	onEveryEngine(t, nil, func(t *testing.T, e Engine) {
		e.At(Time(10*Microsecond), "ev", func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling in the past did not panic")
			}
		}()
		e.At(Time(5*Microsecond), "late", func() {})
	})
}

// TestComplianceStatsReproduce pins that the organic counters — everything
// except queue-placement Overflows — agree across implementations driving
// the same scenario.
func TestComplianceStatsReproduce(t *testing.T) {
	scenario := func(e Engine) {
		c := e.Go("w", func(c *Coroutine) {
			for i := 0; i < 5; i++ {
				c.Sleep(Duration(i+1) * Microsecond)
			}
		})
		c.Unpark()
		for i := 0; i < 10; i++ {
			e.After(Duration(i+1)*2*Microsecond, "tick", func() {})
		}
		h := e.After(Millisecond, "doomed", func() {})
		h.Cancel()
		e.Run()
	}
	var ref EngineStats
	for i, eut := range enginesUnderTest {
		i, eut := i, eut
		t.Run(eut.name, func(t *testing.T) {
			eut.run(t, nil, func(e Engine) {
				scenario(e)
				got := *e.Stats()
				got.PhysicalSwitches = 0 // host-side; legitimately varies
				if i == 0 {
					ref = got
					return
				}
				if got != ref {
					t.Fatalf("stats diverge from reference:\n got %+v\nwant %+v", got, ref)
				}
			})
		})
	}
}
