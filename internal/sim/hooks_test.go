package sim

import (
	"fmt"
	"testing"
)

// hookEvent is one observed hook invocation, fields copied out of the ctx.
type hookEvent struct {
	pos  HookPos
	t    Time
	seq  uint64
	kind Kind
	subj string
}

// observe registers a copying observer at every hook position and returns
// the shared stream slice pointer.
func observe(e Engine) *[]hookEvent {
	var stream []hookEvent
	out := &stream
	for pos := HookPos(0); pos < numHookPos; pos++ {
		p := pos
		e.Hooks().Register(p, HookFunc(func(ctx *HookCtx) {
			*out = append(*out, hookEvent{p, ctx.Time, ctx.Seq, ctx.Kind, ctx.Subject})
		}))
	}
	return out
}

// filter returns the sub-stream at one position.
func filter(stream []hookEvent, pos HookPos) []hookEvent {
	var out []hookEvent
	for _, h := range stream {
		if h.pos == pos {
			out = append(out, h)
		}
	}
	return out
}

func TestHookRegistrationOrderIsInvocationOrder(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		n := name
		e.Hooks().Register(HookPreFire, HookFunc(func(*HookCtx) {
			order = append(order, n)
		}))
	}
	e.After(Microsecond, "ev", func() {})
	e.Run()
	want := []string{"first", "second", "third"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHookCtxCarriesEventCoordinates(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	stream := observe(e)
	e.AtNamed(Time(3*Microsecond), "tick", "cpu0", func() {})
	e.Run()

	sched := filter(*stream, HookSchedule)
	if len(sched) != 1 {
		t.Fatalf("%d schedule hooks, want 1", len(sched))
	}
	want := hookEvent{HookSchedule, Time(3 * Microsecond), 1, "tick", "cpu0"}
	if sched[0] != want {
		t.Fatalf("schedule hook = %+v, want %+v", sched[0], want)
	}
	pre := filter(*stream, HookPreFire)
	post := filter(*stream, HookPostFire)
	if len(pre) != 1 || len(post) != 1 {
		t.Fatalf("pre=%d post=%d hooks, want 1 each", len(pre), len(post))
	}
	if pre[0].t != want.t || pre[0].seq != want.seq || pre[0].kind != want.kind || pre[0].subj != want.subj {
		t.Fatalf("pre-fire hook = %+v, want coordinates of %+v", pre[0], want)
	}
	for _, h := range *stream {
		if h.pos != HookClose && h.kind == "" {
			t.Fatalf("non-close hook with empty kind: %+v", h)
		}
	}
}

func TestHookCancelEmitted(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	stream := observe(e)
	h := e.After(Millisecond, "doomed", func() { t.Error("cancelled event fired") })
	if !h.Cancel() {
		t.Fatal("Cancel reported false")
	}
	e.Run()
	canc := filter(*stream, HookCancel)
	if len(canc) != 1 {
		t.Fatalf("%d cancel hooks, want 1", len(canc))
	}
	if canc[0].kind != "doomed" || canc[0].t != Time(Millisecond) {
		t.Fatalf("cancel hook = %+v", canc[0])
	}
	if len(filter(*stream, HookPreFire)) != 0 {
		t.Fatal("cancelled event reached PreFire")
	}
}

func TestCloseHookFiresExactlyOnce(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.Hooks().OnClose(func(closed Engine) {
		if closed != e {
			t.Error("close hook got a different engine")
		}
		calls++
	})
	e.After(Microsecond, "ev", func() {})
	e.Run()
	e.Close()
	e.Close() // idempotent: hook must not re-fire
	if calls != 1 {
		t.Fatalf("close hook ran %d times, want 1", calls)
	}
}

func TestOnCloseOptionRegistersCloseHook(t *testing.T) {
	calls := 0
	e := NewEngine(OnClose(func(Engine) { calls++ }))
	e.Close()
	if calls != 1 {
		t.Fatalf("OnClose option hook ran %d times, want 1", calls)
	}
}

func TestCloseHookSeesFinalState(t *testing.T) {
	var at Time
	var events uint64
	e := NewEngine(WithLabel("probe"), OnClose(func(eng Engine) {
		at = eng.Now()
		events = eng.Stats().Events
		if eng.Label() != "probe" {
			t.Errorf("Label inside close hook = %q", eng.Label())
		}
	}))
	e.After(7*Microsecond, "ev", func() {})
	e.Run()
	e.Close()
	if at != Time(7*Microsecond) {
		t.Fatalf("close hook saw Now=%v, want 7µs", at)
	}
	if events != 1 {
		t.Fatalf("close hook saw Events=%d, want 1", events)
	}
}

// hookScenario drives a workload with sleeps, coroutine unparks, plain
// events, and a cancel — the shapes whose hook emission paths differ
// (queued fire, elided consume, inline charge, cancel).
func hookScenario(e Engine) {
	c := e.Go("worker", func(c *Coroutine) {
		for i := 0; i < 3; i++ {
			c.Sleep(Duration(i+1) * Microsecond)
		}
		c.Park("wait")
		c.Sleep(Microsecond)
	})
	c.Unpark()
	e.After(2*Microsecond, "tick", func() {})
	doomed := e.After(50*Microsecond, "doomed", func() {})
	e.AfterNamed(10*Microsecond, "wake", "worker", func() { c.Unpark() })
	e.RunFor(20 * Microsecond)
	doomed.Cancel()
	e.Run()
}

// TestHookStreamsIdenticalWithElisionOnOff pins the invariant that makes the
// PreFire stream the canonical fired-event history: Schedule, Cancel, and PreFire hook streams are
// identical whether the elision fast path is enabled or not. (PostFire may
// legally interleave differently relative to Schedule for elided resumes.)
func TestHookStreamsIdenticalWithElisionOnOff(t *testing.T) {
	run := func(elide bool) []hookEvent {
		e := NewEngine(WithElision(elide))
		defer e.Close()
		stream := observe(e)
		hookScenario(e)
		return *stream
	}
	on := run(true)
	off := run(false)
	for _, pos := range []HookPos{HookSchedule, HookCancel, HookPreFire} {
		a, b := filter(on, pos), filter(off, pos)
		if len(a) != len(b) {
			t.Fatalf("%v stream length %d (elision on) != %d (off)", pos, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v stream diverges at %d: %+v (on) vs %+v (off)", pos, i, a[i], b[i])
			}
		}
	}
	// The elided run must actually have taken the fast path, or this test
	// proves nothing.
	var withElision, withoutElision uint64
	eOn := NewEngine(WithElision(true))
	hookScenario(eOn)
	withElision = eOn.Stats().PhysicalSwitches
	eOn.Close()
	eOff := NewEngine(WithElision(false))
	hookScenario(eOff)
	withoutElision = eOff.Stats().PhysicalSwitches
	eOff.Close()
	if withElision >= withoutElision {
		t.Fatalf("scenario did not exercise elision: %d physical switches with, %d without", withElision, withoutElision)
	}
}

// TestPostFirePairsWithPreFire pins that every PreFire has a matching
// PostFire with the same coordinates, in both elision modes — only the
// position of PostFire relative to other hooks may shift.
func TestPostFirePairsWithPreFire(t *testing.T) {
	for _, elide := range []bool{true, false} {
		e := NewEngine(WithElision(elide))
		stream := observe(e)
		hookScenario(e)
		e.Close()
		pre, post := filter(*stream, HookPreFire), filter(*stream, HookPostFire)
		if len(pre) != len(post) {
			t.Fatalf("elide=%v: %d PreFire vs %d PostFire hooks", elide, len(pre), len(post))
		}
		seen := map[uint64]int{}
		for _, h := range pre {
			seen[h.seq]++
		}
		for _, h := range post {
			seen[h.seq]--
		}
		for seq, n := range seen {
			if n != 0 {
				t.Fatalf("elide=%v: seq %d fired %+d more PreFire than PostFire", elide, seq, n)
			}
		}
	}
}

// TestHookDispatchDoesNotAllocate gates both sides of the dispatch cost:
// with no hooks registered the whole drive loop must not allocate per event,
// and with copying hooks installed the dispatch itself (reused ctx) must add
// zero allocations.
func TestHookDispatchDoesNotAllocate(t *testing.T) {
	bodies := func(e Engine) {
		for i := 0; i < 100; i++ {
			e.After(Duration(i+1)*Microsecond, "tick", func() {})
		}
		e.Run()
	}
	e := NewEngine()
	defer e.Close()
	bodies(e) // warm the event free list
	if avg := testing.AllocsPerRun(10, func() { bodies(e) }); avg > 0 {
		t.Errorf("no-hook drive loop allocates %.1f/run, want 0", avg)
	}

	eh := NewEngine()
	defer eh.Close()
	var count uint64
	for pos := HookPos(0); pos < numHookPos; pos++ {
		eh.Hooks().Register(pos, HookFunc(func(ctx *HookCtx) { count += uint64(ctx.Seq) }))
	}
	bodies(eh)
	if avg := testing.AllocsPerRun(10, func() { bodies(eh) }); avg > 0 {
		t.Errorf("hooked drive loop allocates %.1f/run, want 0 (reused ctx)", avg)
	}
	_ = count
}

func TestRegisterInvalidPositionPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(numHookPos) did not panic")
		}
	}()
	e.Hooks().Register(numHookPos, HookFunc(func(*HookCtx) {}))
}

func TestHookPosStrings(t *testing.T) {
	for pos := HookPos(0); pos < numHookPos; pos++ {
		if s := pos.String(); s == "invalid" || s == "" {
			t.Errorf("HookPos(%d).String() = %q", pos, s)
		}
	}
	if got := fmt.Sprint(numHookPos); got != "invalid" {
		t.Errorf("numHookPos.String() = %q, want invalid", got)
	}
}
