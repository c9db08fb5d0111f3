package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// runObs is everything observable about one interpreted run: the ordered
// event log (virtual time + actor + action), the final clock, and the
// simulation-side statistics. Two configurations are equivalent iff their
// runObs are deep-equal; PhysicalSwitches is deliberately excluded — it is
// the one value the fast path is allowed (indeed, expected) to change.
type runObs struct {
	log      []string
	end      Time
	events   uint64
	logical  uint64
	sched    uint64
	cancels  uint64
	overfl   uint64
	maxPend  int
	physical uint64 // compared only against logical, never across configs
}

// interpret runs the byte-encoded coroutine workload on a fresh engine drawn
// from pool (nil = unpooled), with the elision fast path optionally forced
// off. The workload mixes the primitives every layer above builds on —
// Sleep (with and without competing events), charge-completion callbacks
// through InlineCharge, Unpark by plain events, and child spawning (which on
// a pooled engine recycles goroutines mid-run).
func interpret(program []byte, pool *Pool, disableElision bool) runObs {
	e := pool.NewEngine(WithElision(!disableElision))
	defer e.Close()

	var obs runObs
	logf := func(format string, args ...any) {
		obs.log = append(obs.log, fmt.Sprintf("%d ", e.Now())+fmt.Sprintf(format, args...))
	}

	ncos := 1 + int(at(program, 0))%4
	var body func(id int, ops []byte) func(*Coroutine)
	body = func(id int, ops []byte) func(*Coroutine) {
		return func(c *Coroutine) {
			for i := 0; i < len(ops); i++ {
				b := ops[i]
				arg := Duration(b/8%16) * Microsecond
				switch b % 8 {
				case 0, 1: // sleep: elides when nothing else fires first
					logf("co%d sleep %v", id, arg)
					c.Sleep(arg)
				case 2: // competing event, then sleep past it
					logf("co%d race", id)
					e.After(arg/2, "racer", func() { logf("racer for co%d", id) })
					c.Sleep(arg)
				case 3, 4: // charge: completion callback unparks us
					logf("co%d charge %v", id, arg)
					h := e.AfterNamed(arg, "charge-done", c.Name(), func() {
						logf("charge-done co%d", id)
						if c.Parked() && !c.ResumeScheduled() {
							c.Unpark()
						}
					})
					if !c.InlineCharge(h, "charge") {
						c.Park("charge")
					}
				case 5: // spawn a child; on a pooled engine this recycles goroutines
					if i+3 < len(ops) {
						child := e.Go(fmt.Sprintf("co%d.%d", id, i), body(100*id+i, ops[i+1:i+3]))
						child.UnparkAt(e.Now().Add(arg))
						i += 2
					}
					logf("co%d spawned", id)
				case 6: // zero-length sleep
					logf("co%d sleep0", id)
					c.Sleep(0)
				case 7: // plain timed event racing ahead
					e.After(arg, "tick", func() { logf("tick co%d", id) })
					logf("co%d tick-armed", id)
				}
			}
			logf("co%d done", id)
		}
	}

	per := 1
	if len(program) > 1 {
		per = (len(program)-1+ncos-1)/ncos + 1
	}
	for i := 0; i < ncos; i++ {
		lo := 1 + i*per
		hi := lo + per
		if lo > len(program) {
			lo = len(program)
		}
		if hi > len(program) {
			hi = len(program)
		}
		c := e.Go(fmt.Sprintf("co%d", i), body(i, program[lo:hi]))
		c.UnparkAt(e.Now().Add(Duration(i) * Microsecond))
	}
	e.Run()

	obs.end = e.Now()
	obs.events = e.Stats().Events
	obs.logical = e.Stats().LogicalResumes
	obs.physical = e.Stats().PhysicalSwitches
	obs.sched = e.Stats().Scheduled
	obs.cancels = e.Stats().Cancels
	obs.overfl = e.Stats().Overflows
	obs.maxPend = e.Stats().MaxPending
	return obs
}

func at(b []byte, i int) byte {
	if i >= len(b) {
		return 0
	}
	return b[i]
}

// same compares every determinism-relevant field of two runs.
func (a runObs) same(b runObs) string {
	if a.end != b.end {
		return fmt.Sprintf("end %v vs %v", a.end, b.end)
	}
	if a.events != b.events || a.logical != b.logical || a.sched != b.sched ||
		a.cancels != b.cancels || a.overfl != b.overfl || a.maxPend != b.maxPend {
		return fmt.Sprintf("stats {ev %d res %d sch %d can %d ovf %d max %d} vs {ev %d res %d sch %d can %d ovf %d max %d}",
			a.events, a.logical, a.sched, a.cancels, a.overfl, a.maxPend,
			b.events, b.logical, b.sched, b.cancels, b.overfl, b.maxPend)
	}
	if len(a.log) != len(b.log) {
		return fmt.Sprintf("log length %d vs %d", len(a.log), len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			return fmt.Sprintf("log[%d] %q vs %q", i, a.log[i], b.log[i])
		}
	}
	return ""
}

// checkEquivalence runs one program under every execution strategy — the
// physical-hand-off baseline, the elision fast path, and both again on a
// shared pool (the pooled runs back-to-back, so the second draws only warm
// goroutines) — and fails on the first observable divergence.
func checkEquivalence(t *testing.T, program []byte) {
	t.Helper()
	base := interpret(program, nil, true) // all-physical, unpooled: the oracle
	if base.logical != base.physical {
		t.Fatalf("baseline elided switches with DisableElision: logical %d physical %d", base.logical, base.physical)
	}
	elided := interpret(program, nil, false)
	if diff := base.same(elided); diff != "" {
		t.Fatalf("elision changed the run: %s", diff)
	}
	if elided.physical > elided.logical {
		t.Fatalf("physical %d > logical %d", elided.physical, elided.logical)
	}
	pool := NewPool()
	defer pool.Close()
	cold := interpret(program, pool, false)
	if diff := base.same(cold); diff != "" {
		t.Fatalf("pooled (cold) run diverged: %s", diff)
	}
	warm := interpret(program, pool, false)
	if diff := base.same(warm); diff != "" {
		t.Fatalf("pooled (warm) run diverged: %s", diff)
	}
	if pool.Stats.Spawned > 0 && pool.Stats.Reused == 0 && base.logical > 0 {
		// Two identical runs on one pool: the second must have found warm
		// goroutines unless the program spawned no coroutine bodies at all.
		t.Fatalf("pool never reused a goroutine: %+v", pool.Stats)
	}
}

// TestPooledLockstepMatchesUnpooled is the lockstep property test: random
// programs, every strategy, byte-identical observations — the pool/elision
// analogue of the wheel-vs-heap oracle test.
func TestPooledLockstepMatchesUnpooled(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 4+rng.Intn(60))
		rng.Read(program)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkEquivalence(t, program)
		})
	}
}

// FuzzPooledVsUnpooled hands the interpreter arbitrary programs; any
// observable difference between physical, elided, and pooled execution is a
// crash. Mirrors FuzzWheelVsHeapOracle at the coroutine layer.
func FuzzPooledVsUnpooled(f *testing.F) {
	f.Add([]byte{2, 0, 16, 3, 40, 5, 1, 1, 6, 2, 80, 7, 33})
	f.Add([]byte{0, 9, 9, 9})
	f.Add([]byte{3, 5, 0, 0, 5, 18, 18, 26, 42})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			// Equivalence over long programs is length-uniform; cap the cost
			// per exec so the fuzzer explores shapes, not sizes.
			program = program[:512]
		}
		checkEquivalence(t, program)
	})
}

// TestSleepZeroFastPath pins Sleep(0) semantics under elision: the clock
// does not move, execution continues in place, and a same-instant event
// scheduled earlier still fires first.
func TestSleepZeroFastPath(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var log []string
	c := e.Go("z", func(c *Coroutine) {
		log = append(log, "before")
		c.Sleep(0) // queue holds only our wake: elides
		log = append(log, fmt.Sprintf("after@%d", e.Now()))
		e.After(0, "same-instant", func() { log = append(log, "event") })
		c.Sleep(0) // the same-instant event has a smaller seq: must fire first
		log = append(log, "last")
	})
	c.Unpark()
	e.Run()
	want := "before,after@0,event,last"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("log = %s, want %s", got, want)
	}
	if e.Now() != 0 {
		t.Fatalf("Sleep(0) advanced the clock to %v", e.Now())
	}
}

// TestUnparkRacingSameInstantWake pins the ordering the machine layer's
// resumeIfWaiting relies on: an event at the same instant as a sleep's wake
// (but scheduled earlier) runs first, observes the sleeper parked with its
// resume pending, and must not Unpark it.
func TestUnparkRacingSameInstantWake(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	const d = 5 * Microsecond
	var sawParked, sawResume bool
	var c *Coroutine
	woke := false
	e.After(d, "racer", func() {
		sawParked = c.Parked()
		sawResume = c.ResumeScheduled()
		if woke {
			t.Fatal("wake fired before the earlier-scheduled racer")
		}
		if !sawResume {
			c.Unpark() // would be the machine-layer bug this test guards
		}
	})
	c = e.Go("sleeper", func(c *Coroutine) {
		c.Sleep(d) // racer has a smaller seq at the same instant: no elision
		woke = true
	})
	c.Unpark()
	e.Run()
	if !woke {
		t.Fatal("sleeper never woke")
	}
	if !sawParked || !sawResume {
		t.Fatalf("racer saw parked=%v resumeScheduled=%v, want true/true", sawParked, sawResume)
	}
}

// TestPooledKillMidReuse closes an engine with pooled coroutines in every
// pre-done state — never started, parked — and checks each goroutine comes
// back to the pool ready for the next engine.
func TestPooledKillMidReuse(t *testing.T) {
	pool := NewPool()
	defer pool.Close()

	e := pool.NewEngine()
	parked := e.Go("parked", func(c *Coroutine) {
		// RunUntil's fire ceiling is 1µs, so this wake cannot elide: the
		// coroutine physically parks mid-sleep.
		c.Sleep(Second)
	})
	parked.Unpark()
	e.RunUntil(Time(Microsecond)) // sleeper now parked mid-sleep
	_ = e.Go("unstarted", func(c *Coroutine) { t.Error("unstarted body ran") })
	e.Close() // kills both
	if !parked.Done() {
		t.Fatal("parked coroutine not unwound by Close")
	}
	if got := pool.Idle(); got != 2 {
		t.Fatalf("Idle() = %d after Close, want 2", got)
	}

	// The same goroutines must cleanly host the next engine's coroutines.
	e2 := pool.NewEngine()
	ran := false
	c := e2.Go("fresh", func(c *Coroutine) { ran = true })
	c.Unpark()
	e2.Run()
	e2.Close()
	if !ran {
		t.Fatal("reused goroutine did not run the new body")
	}
	if pool.Stats.Reused == 0 {
		t.Fatalf("no reuse recorded: %+v", pool.Stats)
	}
	if got := pool.Idle(); got != 2 {
		t.Fatalf("Idle() = %d after second engine, want 2", got)
	}
}

// TestPooledPanicPropagates pins the panic contract: a panic in a pooled
// coroutine body surfaces on the engine goroutine as *CoroutinePanic — where
// the driving test can recover it — and the hosting goroutine returns to the
// pool unpoisoned, immediately reusable.
func TestPooledPanicPropagates(t *testing.T) {
	pool := NewPool()
	defer pool.Close()

	e := pool.NewEngine()
	c := e.Go("bomb", func(c *Coroutine) {
		c.Sleep(Microsecond)
		panic("boom")
	})
	c.Unpark()
	func() {
		defer func() {
			r := recover()
			cp, ok := r.(*CoroutinePanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *CoroutinePanic", r, r)
			}
			if cp.Co != "bomb" || cp.Value != "boom" || len(cp.Stack) == 0 {
				t.Fatalf("CoroutinePanic = {Co:%q Value:%v stack:%dB}", cp.Co, cp.Value, len(cp.Stack))
			}
		}()
		e.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	e.Close()

	// The pool must not be poisoned: the goroutine that hosted the panic is
	// idle again and runs the next body normally.
	if got := pool.Idle(); got != 1 {
		t.Fatalf("Idle() = %d after panic, want 1", got)
	}
	e2 := pool.NewEngine()
	ok := false
	c2 := e2.Go("next", func(c *Coroutine) { c.Sleep(Microsecond); ok = true })
	c2.Unpark()
	e2.Run()
	e2.Close()
	if !ok {
		t.Fatal("post-panic reuse did not run")
	}
	if pool.Stats.Spawned != 1 || pool.Stats.Reused != 1 {
		t.Fatalf("pool stats = %+v, want 1 spawn + 1 reuse", pool.Stats)
	}
}

// TestUnpooledPanicPropagates: same contract without a pool, so tests around
// plain engines can rely on recover() too.
func TestUnpooledPanicPropagates(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := e.Go("bomb", func(c *Coroutine) { panic(42) })
	c.Unpark()
	defer func() {
		cp, ok := recover().(*CoroutinePanic)
		if !ok || cp.Value != 42 {
			t.Fatalf("recovered %v, want *CoroutinePanic{Value:42}", cp)
		}
	}()
	e.Run()
	t.Fatal("Run returned instead of panicking")
}

// TestClosedPoolRefusesEnginesButReleasesSpares pins Close semantics.
func TestClosedPoolRefusesEngines(t *testing.T) {
	pool := NewPool()
	pool.Close()
	pool.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine on closed pool did not panic")
		}
	}()
	pool.NewEngine()
}

// TestElisionCountsSwitches pins the stats split at the sim layer: a lone
// sleeper's resumptions are all logical, near-zero physical; with elision
// disabled the two counts match.
func TestElisionCountsSwitches(t *testing.T) {
	run := func(disable bool) (logical, physical uint64) {
		e := NewEngine(WithElision(!disable))
		defer e.Close()
		c := e.Go("s", func(c *Coroutine) {
			for i := 0; i < 100; i++ {
				c.Sleep(Microsecond)
			}
		})
		c.Unpark()
		e.Run()
		return e.Stats().LogicalResumes, e.Stats().PhysicalSwitches
	}
	l0, p0 := run(true)
	if l0 != p0 {
		t.Fatalf("DisableElision: logical %d != physical %d", l0, p0)
	}
	l1, p1 := run(false)
	if l1 != l0 {
		t.Fatalf("elision changed logical resumes: %d vs %d", l1, l0)
	}
	// The initial dispatch is physical; all 100 sleeps elide.
	if p1 != 1 {
		t.Fatalf("physical switches = %d, want 1 (the initial dispatch)", p1)
	}
}

// TestPooledGoSteadyStateAllocs pins what pooling buys: re-arming a warm
// pooled host for Engine.Go and running the body to completion allocates at
// most the Coroutine record itself. A pool that fell back to one iter.Pull
// per coroutine would pay a fresh Pull's allocations on every call, which the
// unpooled control run shows exceeds that bound.
func TestPooledGoSteadyStateAllocs(t *testing.T) {
	goAndRun := func(e Engine) func() {
		fn := func(c *Coroutine) { c.Sleep(Microsecond) }
		return func() {
			e.Go("co", fn).Unpark()
			e.Run()
		}
	}

	pool := NewPool()
	defer pool.Close()
	e := pool.NewEngine()
	defer e.Close()
	run := goAndRun(e)
	run() // warm the host, the event free list and the live set
	if got := testing.AllocsPerRun(100, run); got > 1 {
		t.Errorf("pooled Go + run allocates %.1f times, want <= 1 (the Coroutine record)", got)
	}
	if pool.Stats.Spawned != 1 {
		t.Errorf("pool spawned %d hosts for sequential coroutines, want 1", pool.Stats.Spawned)
	}

	plain := NewEngine()
	defer plain.Close()
	runPlain := goAndRun(plain)
	runPlain()
	if got := testing.AllocsPerRun(100, runPlain); got <= 1 {
		t.Errorf("unpooled Go + run allocates %.1f times; the probe cannot tell pooled from unpooled", got)
	}
}
