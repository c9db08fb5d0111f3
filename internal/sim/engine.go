package sim

import (
	"errors"
	"fmt"

	"schedact/internal/stats"
)

// ErrKilled unwinds a coroutine when the engine shuts down. Simulated code
// never observes it: the panic is recovered by the coroutine wrapper.
var ErrKilled = errors.New("sim: coroutine killed by engine shutdown")

// Engine is a discrete-event simulator timeline: a clock, an ordered event
// queue, and the coroutine machinery that runs simulated execution contexts
// against it. Every layer of the stack — machine, kernel, core, uthread, the
// chaos battery, the experiment harness — holds this interface, so engines
// are interchangeable: the reference sequential engine (NewEngine) and the
// record/replay engine (NewReplayEngine) both slot in behind it.
//
// Engine methods must only be called from the goroutine driving Run/Step, or
// from inside event callbacks and coroutines (which, by the strict hand-off
// discipline, is the same goroutine dynamically). An engine is not safe for
// concurrent use; it does not need to be, since the whole point is a single
// deterministic timeline. To use every core, run many engines — one per
// independent run — under internal/fleet.
//
// Every implementation must provide the exact observable contract the
// compliance suite (compliance_test.go) pins: the (time, seq) total order,
// exact Pending counts, inert stale Handles, coroutine park/unpark
// semantics, and identical hook streams with elision on and off. A new
// engine lands with a lockstep-oracle test against the reference plus a
// fingerprint pin over the chaos sweep (DESIGN.md §6 has the checklist).
type Engine interface {
	// Now reports the current virtual time.
	Now() Time
	// Pending reports the number of events queued to fire. Cancelled events
	// are removed immediately, so the count is exact.
	Pending() int

	// At schedules fn to run at absolute time t. Scheduling in the past (t
	// before Now) panics: it would corrupt the timeline, and always
	// indicates a bug in the caller. The returned handle may be used to
	// Cancel.
	At(t Time, kind Kind, fn func()) Handle
	// AtNamed is At with a subject: the dynamic "who" of the event, kept
	// separate from the static kind so the hot path never concatenates.
	AtNamed(t Time, kind Kind, subject string, fn func()) Handle
	// After schedules fn to run d after the current time.
	After(d Duration, kind Kind, fn func()) Handle
	// AfterNamed is After with a subject.
	AfterNamed(d Duration, kind Kind, subject string, fn func()) Handle

	// Step fires the next event, advancing the clock to its time. It
	// reports false when the queue is empty.
	Step() bool
	// Run fires events until the queue is empty.
	Run()
	// RunUntil fires events with time <= t, then sets the clock to t.
	// Events scheduled at exactly t do fire.
	RunUntil(t Time)
	// RunFor advances the clock by d, firing all events in the window.
	RunFor(d Duration)

	// Go creates a coroutine that will execute fn. The coroutine does not
	// start until its first Unpark; this lets schedulers create execution
	// contexts and dispatch them later.
	Go(name string, fn func(*Coroutine)) *Coroutine
	// Current reports the coroutine currently executing, or nil when the
	// engine is running a plain event callback.
	Current() *Coroutine

	// Close shuts the engine down: close hooks fire, every live coroutine
	// is unwound so no goroutines leak, and outstanding handles turn inert.
	// After Close the engine must not be used. Close is idempotent.
	Close()

	// Reset returns the engine to its construction state for reuse on a
	// fresh run, without tearing down what is expensive to rebuild: the
	// clock, sequence counter, queue, and every counter return to zero and
	// all live coroutines are unwound (outstanding Handles turn inert, the
	// event free list is dropped so a warm run's Reuses count matches a
	// cold engine's exactly) — while the metrics registry, hook
	// registrations, goroutine pool, and allocated queue capacity survive.
	// Close hooks do NOT fire: the run is being recycled, not finished.
	// Options are applied as at construction (label and elision default
	// when not given). Reset on a closed engine panics; resetting an idle
	// engine twice is harmless. A run that unwound with a *CoroutinePanic
	// may be Reset and the engine reused.
	Reset(opts ...Option)

	// Label reports the engine's label (WithLabel).
	Label() string
	// Metrics returns the engine's shared stats registry. Every scheduling
	// layer running on this engine registers its counters here.
	Metrics() *stats.Registry
	// Stats exposes the engine's activity counters.
	Stats() *EngineStats
	// Hooks returns the engine's hook registry.
	Hooks() *Hooks

	// base seals the interface to this package: engines share the event
	// pool, coroutine machinery, stats, and hook plumbing of engineBase, so
	// an implementation cannot exist outside internal/sim.
	base() *engineBase
}

// EngineStats counts engine activity; useful for tests and for keeping an
// eye on event-storm bugs. The same values are readable through Metrics
// under the "sim." prefix. All fields except PhysicalSwitches are simulated
// observables: two engines given the same program must produce identical
// values (the replay engine adopts Overflows from its recording, since
// overflow placement is a queue-machinery detail it does not re-execute).
type EngineStats struct {
	Events           uint64 // events fired
	LogicalResumes   uint64 // coroutine resumptions, physical or elided
	PhysicalSwitches uint64 // resumptions paid with a real goroutine hand-off
	Scheduled        uint64 // events scheduled
	Cancels          uint64 // events cancelled (removed without firing)
	Reuses           uint64 // schedules served from the free list
	Overflows        uint64 // schedules that landed in the overflow heap
	MaxPending       int    // high-water mark of the event queue
}

// impl is the private face of an engine implementation: the handful of
// queue-touching operations the shared coroutine and Handle machinery routes
// through. Everything else (drive loops, At/After sugar) each engine
// implements concretely so its hot loop pays no interface dispatch on
// itself.
type impl interface {
	Engine
	// scheduleEvent is the single scheduling entry: every At/After and
	// coroutine resume lands here.
	scheduleEvent(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle
	// nextEvent returns the next event in the engine's total order without
	// removing it, or nil when none is queued. (The reference engine's
	// implementation also positions its wheel, so calling it is not free —
	// but it is idempotent.)
	nextEvent() *Event
	// fireNext fires ev, which must be the event nextEvent just returned:
	// remove, advance the clock, recycle, emit hooks, run the callback.
	fireNext(ev *Event)
	// consumeNext consumes ev — a pending resume for c, and the event
	// nextEvent just returned — in place, without a goroutine hand-off.
	consumeNext(ev *Event, c *Coroutine)
	// cancelQueued removes a still-queued event (the Handle staleness
	// checks have already passed).
	cancelQueued(ev *Event)
}

// engineBase is the state and machinery every engine implementation shares:
// the clock, the sequence counter, the recycled event pool, the coroutine
// set, stats, metrics, and hooks. Implementations embed it by value and
// point self at themselves so the shared coroutine/Handle paths can reach
// their queue operations.
type engineBase struct {
	self    impl
	now     Time
	limit   Time // fire ceiling of the current Run/RunUntil/Step call; elision must not pass it
	seq     uint64
	free    []*Event // recycled event records
	cur     *Coroutine
	live    map[*Coroutine]struct{}
	pool    *Pool // goroutine pool backing Engine.Go, nil when unpooled
	closed  bool
	noElide bool
	label   string
	metrics *stats.Registry
	hooks   Hooks
	st      EngineStats
}

// init wires the base to its implementation and applies construction
// options. Must be the first thing a concrete constructor calls.
func (b *engineBase) init(self impl, c config) {
	b.self = self
	b.live = make(map[*Coroutine]struct{})
	b.metrics = stats.New()
	b.label = c.label
	b.noElide = c.noElide
	b.hooks.ctx.Engine = self
	b.metrics.Func("sim.events", func() uint64 { return b.st.Events })
	// "sim.resumes" keeps its historical name and value: it counts logical
	// resumptions, which the elision fast path leaves untouched, so the
	// metric (and every fingerprint hashing it) is identical with elision on
	// or off. The physical count is a host metric: it describes how the
	// simulator executed, not what it simulated.
	b.metrics.Func("sim.resumes", func() uint64 { return b.st.LogicalResumes })
	b.metrics.FuncHost("sim.physical_switches", func() uint64 { return b.st.PhysicalSwitches })
	b.metrics.Func("sim.scheduled", func() uint64 { return b.st.Scheduled })
	b.metrics.Func("sim.cancels", func() uint64 { return b.st.Cancels })
	b.metrics.Func("sim.pool_reuses", func() uint64 { return b.st.Reuses })
	b.metrics.Func("sim.overflows", func() uint64 { return b.st.Overflows })
	b.metrics.Func("sim.max_pending", func() uint64 { return uint64(b.st.MaxPending) })
	for _, fn := range c.onClose {
		b.hooks.OnClose(fn)
	}
}

func (b *engineBase) base() *engineBase { return b }

// Now reports the current virtual time.
func (b *engineBase) Now() Time { return b.now }

// Label reports the engine's label.
func (b *engineBase) Label() string { return b.label }

// Metrics returns the engine's shared stats registry.
func (b *engineBase) Metrics() *stats.Registry { return b.metrics }

// Stats exposes the engine's activity counters.
func (b *engineBase) Stats() *EngineStats { return &b.st }

// Hooks returns the engine's hook registry.
func (b *engineBase) Hooks() *Hooks { return &b.hooks }

// alloc takes an event record from the free list, or makes one.
func (b *engineBase) alloc() *Event {
	if n := len(b.free); n > 0 {
		ev := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		b.st.Reuses++
		return ev
	}
	return &Event{eng: b.self, index: -1}
}

// release recycles a fired or cancelled event record. Bumping the
// generation turns every outstanding Handle to it inert.
func (b *engineBase) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.co = nil
	ev.subj = ""
	ev.kind = ""
	b.free = append(b.free, ev)
}

// newEvent is the shared scheduling prologue: validity checks, sequence
// assignment, record allocation. The caller files the record into its queue
// and then calls scheduled.
func (b *engineBase) newEvent(t Time, kind Kind, subj string, fn func(), co *Coroutine) *Event {
	if b.closed {
		panic("sim: schedule on closed engine")
	}
	if t < b.now {
		ev := Event{kind: kind, subj: subj}
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", ev.name(), t, b.now))
	}
	b.seq++
	ev := b.alloc()
	ev.t, ev.seq, ev.kind, ev.subj, ev.fn, ev.co = t, b.seq, kind, subj, fn, co
	return ev
}

// scheduled is the shared scheduling epilogue: counters, high-water mark,
// hook, handle. pending is the queue depth including ev.
func (b *engineBase) scheduled(ev *Event, pending int) Handle {
	b.st.Scheduled++
	if pending > b.st.MaxPending {
		b.st.MaxPending = pending
	}
	if b.hooks.active(HookSchedule) {
		b.hooks.emit(HookSchedule, ev.t, ev.seq, ev.kind, ev.subj)
	}
	return Handle{ev, ev.gen}
}

// finishFire is the queue-independent tail of firing ev: the caller has
// already removed it from its queue. Advances the clock, recycles the
// record (during its own callback the event is already "fired", so its
// handles are inert and its record reusable), emits the fire hooks, and
// runs the callback or dispatches the coroutine.
func (b *engineBase) finishFire(ev *Event) {
	b.now = ev.t
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	fn, co := ev.fn, ev.co
	b.release(ev)
	b.st.Events++
	if b.hooks.active(HookPreFire) {
		b.hooks.emit(HookPreFire, t, seq, kind, subj)
	}
	if co != nil {
		co.dispatch()
	} else {
		fn()
	}
	if b.hooks.active(HookPostFire) {
		b.hooks.emit(HookPostFire, t, seq, kind, subj)
	}
}

// finishConsume is the queue-independent tail of consuming ev — a resume
// for the currently running coroutine c — in place, without a goroutine
// hand-off. The clock advance, record recycling, counters, and hook
// emissions are exactly those of the fired path; only the rendezvous (and
// hence the PhysicalSwitches count) disappear, and PostFire fires adjacent
// to PreFire since the resumed body continues on the spot.
func (b *engineBase) finishConsume(ev *Event, c *Coroutine) {
	b.now = ev.t
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	b.release(ev)
	b.st.Events++
	b.st.LogicalResumes++
	c.resumeScheduled = false
	if b.hooks.active(HookPreFire) {
		b.hooks.emit(HookPreFire, t, seq, kind, subj)
	}
	if b.hooks.active(HookPostFire) {
		b.hooks.emit(HookPostFire, t, seq, kind, subj)
	}
}

// cancelled is the queue-independent tail of cancelling ev: the caller has
// already removed it from its queue.
func (b *engineBase) cancelled(ev *Event) {
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	b.st.Cancels++
	b.release(ev)
	if b.hooks.active(HookCancel) {
		b.hooks.emit(HookCancel, t, seq, kind, subj)
	}
}

// beginClose runs the engine-independent half of Close: close hooks while
// every counter is final but coroutines are still alive, then the coroutine
// unwind. Reports false when the engine was already closed.
func (b *engineBase) beginClose() bool {
	if b.closed {
		return false
	}
	if b.hooks.active(HookClose) {
		b.hooks.emit(HookClose, b.now, b.seq, "", "")
	}
	b.closed = true
	for c := range b.live {
		c.kill()
	}
	return true
}

// beginReset runs the engine-independent head of Reset: validity checks and
// the coroutine unwind. Unlike beginClose, no close hooks fire and the
// engine stays open. After a *CoroutinePanic escaped a drive call, cur may
// still point at the (now done) coroutine; only a genuinely running
// coroutine — a Reset issued from inside simulated code — is rejected.
func (b *engineBase) beginReset() {
	if b.closed {
		panic("sim: Reset on closed engine")
	}
	if b.cur != nil && b.cur.state == coRunning {
		panic("sim: Reset from inside a coroutine")
	}
	for c := range b.live {
		c.kill()
	}
}

// resetBase reinitializes the shared engine state for a fresh run: clock,
// sequence counter, fire ceiling, and every stat return to zero, the event
// free list is dropped (a warm run must serve its first allocations fresh,
// so the fingerprinted Reuses count matches a cold engine's exactly), and
// the construction options are re-applied. The metrics registry, hook
// registrations, live-set map, and goroutine pool survive — re-registering
// metrics would corrupt the registry's dedup names, and the pool's warm
// goroutines are the point of resetting instead of closing.
func (b *engineBase) resetBase(c config) {
	b.now, b.limit, b.seq = 0, 0, 0
	b.cur = nil
	for i := range b.free {
		b.free[i] = nil
	}
	b.free = b.free[:0]
	b.st = EngineStats{}
	b.label = c.label
	b.noElide = c.noElide
	for _, fn := range c.onClose {
		b.hooks.OnClose(fn)
	}
}

// maxTime is the fire ceiling of an unbounded Run call.
const maxTime = Time(1<<63 - 1)

// SeqEngine is the reference engine: the sequential, elided simulator the
// whole repository's timelines are pinned against. Its hot path — schedule,
// fire, cancel — is allocation-free in steady state and O(1) for the near
// future: event records live on a free list and are recycled as they fire
// or are cancelled, and the queue is a timeline (timeline.go) — a two-level
// timing wheel whose slot lists splice in constant time, with the indexed
// heap kept as the sorted overflow level for events beyond the ~67 ms
// horizon. Cancellation removes the record outright from either structure
// (no tombstones, so Pending is exact).
//
// Code outside internal/sim holds the Engine interface, never this type
// (make lint enforces the seam).
type SeqEngine struct {
	engineBase
	tl    timeline
	drain []*Event // Reset drain scratch, reused across resets
}

// NewEngine returns a reference sequential engine at time zero with an empty
// event queue.
func NewEngine(opts ...Option) Engine {
	return newSeqEngine(nil, buildConfig(opts))
}

func newSeqEngine(pool *Pool, c config) *SeqEngine {
	e := &SeqEngine{}
	e.tl.reset(&e.st.Overflows)
	e.init(e, c)
	e.pool = pool
	return e
}

// Pending reports the number of events queued to fire.
func (e *SeqEngine) Pending() int { return e.tl.count() }

// schedule is the single hot-path entry: every At/After/coroutine resume
// lands here. No formatting, no allocation in steady state.
func (e *SeqEngine) schedule(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle {
	ev := e.newEvent(t, kind, subj, fn, co)
	e.tl.enqueue(ev)
	return e.scheduled(ev, e.tl.count())
}

// At schedules fn to run at absolute time t.
func (e *SeqEngine) At(t Time, kind Kind, fn func()) Handle {
	return e.schedule(t, kind, "", fn, nil)
}

// AtNamed is At with a subject.
func (e *SeqEngine) AtNamed(t Time, kind Kind, subject string, fn func()) Handle {
	return e.schedule(t, kind, subject, fn, nil)
}

// After schedules fn to run d after the current time.
func (e *SeqEngine) After(d Duration, kind Kind, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, kind))
	}
	return e.schedule(e.now.Add(d), kind, "", fn, nil)
}

// AfterNamed is After with a subject.
func (e *SeqEngine) AfterNamed(d Duration, kind Kind, subject string, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %s:%q", d, subject, kind))
	}
	return e.schedule(e.now.Add(d), kind, subject, fn, nil)
}

// fire removes ev from the queue, advances the clock to its time, recycles
// the record, and runs the callback.
func (e *SeqEngine) fire(ev *Event) {
	e.tl.dequeue(ev)
	e.finishFire(ev)
}

// Step fires the next event, advancing the clock to its time. It reports
// false when the queue is empty.
func (e *SeqEngine) Step() bool {
	ev := e.tl.peek()
	if ev == nil {
		return false
	}
	e.limit = ev.t
	e.fire(ev)
	return true
}

// Run fires events until the queue is empty.
func (e *SeqEngine) Run() {
	e.limit = maxTime
	for {
		ev := e.tl.peek()
		if ev == nil {
			return
		}
		e.fire(ev)
	}
}

// RunUntil fires events with time <= t, then sets the clock to t. Events
// scheduled at exactly t do fire.
func (e *SeqEngine) RunUntil(t Time) {
	e.limit = t
	for {
		ev := e.tl.peek()
		if ev == nil || ev.t > t {
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d, firing all events in the window.
func (e *SeqEngine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Close shuts the engine down, unwinding every live coroutine so no
// goroutines leak. After Close the engine must not be used. Close is
// idempotent.
func (e *SeqEngine) Close() {
	if !e.beginClose() {
		return
	}
	// Invalidate outstanding handles to still-queued events before dropping
	// the queue, so a stale Cancel after Close stays inert.
	for _, ev := range e.tl.drainAll(nil) {
		ev.gen++
	}
	e.free = nil
}

// Reset returns the engine to its construction state for reuse; see
// Engine.Reset for the contract.
func (e *SeqEngine) Reset(opts ...Option) {
	e.beginReset()
	// Every outstanding Handle to a drained record turns inert; dropping the
	// references keeps the records collectable while the scratch survives.
	e.drain = e.tl.drainAll(e.drain[:0])
	for i, ev := range e.drain {
		ev.gen++
		e.drain[i] = nil
	}
	e.resetBase(buildConfig(opts))
	e.tl.reset(&e.st.Overflows)
}

// --- impl ---

func (e *SeqEngine) scheduleEvent(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle {
	return e.schedule(t, kind, subj, fn, co)
}

func (e *SeqEngine) nextEvent() *Event { return e.tl.peek() }

func (e *SeqEngine) fireNext(ev *Event) { e.fire(ev) }

func (e *SeqEngine) consumeNext(ev *Event, c *Coroutine) {
	e.tl.dequeue(ev)
	e.finishConsume(ev, c)
}

func (e *SeqEngine) cancelQueued(ev *Event) {
	e.tl.dequeue(ev)
	e.cancelled(ev)
}
