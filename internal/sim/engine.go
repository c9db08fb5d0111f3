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
// chaos battery, the experiment harness — holds this interface rather than
// the concrete SeqEngine, so the consumer layers and observers see only the
// contract below and the hooks.
//
// Engine methods must only be called from the goroutine driving Run/Step, or
// from inside event callbacks and coroutines (which, by the strict hand-off
// discipline, is the same goroutine dynamically). An engine is not safe for
// concurrent use; it does not need to be, since the whole point is a single
// deterministic timeline. To use every core, run many engines — one per
// independent run — under internal/fleet.
//
// The compliance suite (compliance_test.go) pins the observable contract:
// the (time, seq) total order, exact Pending counts, inert stale Handles,
// coroutine park/unpark semantics, and identical hook streams with elision
// on and off. A new engine lands with a lockstep-oracle test against the
// reference plus a fingerprint pin over the chaos sweep (DESIGN.md §6 has
// the checklist).
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

	// concrete seals the interface to this package: SeqEngine is its only
	// implementation.
	concrete() *SeqEngine
}

// EngineStats counts engine activity; useful for tests and for keeping an
// eye on event-storm bugs. The same values are readable through Metrics
// under the "sim." prefix. All fields except PhysicalSwitches are simulated
// observables: two engines given the same program must produce identical
// values.
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

// maxTime is the fire ceiling of an unbounded Run call.
const maxTime = Time(1<<63 - 1)

// SeqEngine is the engine: the sequential, elided simulator the whole
// repository's timelines are pinned against. It holds the clock, the
// sequence counter, the recycled event pool, the coroutine set, stats,
// metrics, and hooks. Its hot path — schedule, fire, cancel — is
// allocation-free in steady state and O(1) for the near future: event
// records live on a free list and are recycled as they fire or are
// cancelled, and the queue is a timeline (timeline.go) — a two-level timing
// wheel whose slot lists splice in constant time, with the indexed heap kept
// as the sorted overflow level for events beyond the ~67 ms horizon.
// Cancellation removes the record outright from either structure (no
// tombstones, so Pending is exact).
//
// Code outside internal/sim holds the Engine interface, never this type
// (make lint enforces the seam).
type SeqEngine struct {
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
	tl      timeline
	drain   []*Event // Reset drain scratch, reused across resets
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine(opts ...Option) Engine {
	return newSeqEngine(nil, buildConfig(opts))
}

func newSeqEngine(pool *Pool, c config) *SeqEngine {
	e := &SeqEngine{pool: pool}
	e.tl.reset(&e.st.Overflows)
	e.live = make(map[*Coroutine]struct{})
	e.metrics = stats.New()
	e.label = c.label
	e.noElide = c.noElide
	e.hooks.ctx.Engine = e
	e.metrics.Func("sim.events", func() uint64 { return e.st.Events })
	// "sim.resumes" keeps its historical name and value: it counts logical
	// resumptions, which the elision fast path leaves untouched, so the
	// metric (and every fingerprint hashing it) is identical with elision on
	// or off. The physical count is a host metric: it describes how the
	// simulator executed, not what it simulated.
	e.metrics.Func("sim.resumes", func() uint64 { return e.st.LogicalResumes })
	e.metrics.FuncHost("sim.physical_switches", func() uint64 { return e.st.PhysicalSwitches })
	e.metrics.Func("sim.scheduled", func() uint64 { return e.st.Scheduled })
	e.metrics.Func("sim.cancels", func() uint64 { return e.st.Cancels })
	e.metrics.Func("sim.pool_reuses", func() uint64 { return e.st.Reuses })
	e.metrics.Func("sim.overflows", func() uint64 { return e.st.Overflows })
	e.metrics.Func("sim.max_pending", func() uint64 { return uint64(e.st.MaxPending) })
	for _, fn := range c.onClose {
		e.hooks.OnClose(fn)
	}
	return e
}

func (e *SeqEngine) concrete() *SeqEngine { return e }

// Now reports the current virtual time.
func (e *SeqEngine) Now() Time { return e.now }

// Pending reports the number of events queued to fire.
func (e *SeqEngine) Pending() int { return e.tl.count() }

// Label reports the engine's label.
func (e *SeqEngine) Label() string { return e.label }

// Metrics returns the engine's shared stats registry.
func (e *SeqEngine) Metrics() *stats.Registry { return e.metrics }

// Stats exposes the engine's activity counters.
func (e *SeqEngine) Stats() *EngineStats { return &e.st }

// Hooks returns the engine's hook registry.
func (e *SeqEngine) Hooks() *Hooks { return &e.hooks }

// alloc takes an event record from the free list, or makes one.
func (e *SeqEngine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.st.Reuses++
		return ev
	}
	return &Event{eng: e, index: -1}
}

// release recycles a fired or cancelled event record. Bumping the
// generation turns every outstanding Handle to it inert.
func (e *SeqEngine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.co = nil
	ev.subj = ""
	ev.kind = ""
	e.free = append(e.free, ev)
}

// schedule is the single hot-path entry: every At/After/coroutine resume
// lands here. No formatting, no allocation in steady state.
func (e *SeqEngine) schedule(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle {
	if e.closed {
		panic("sim: schedule on closed engine")
	}
	if t < e.now {
		ev := Event{kind: kind, subj: subj}
		panic(fmt.Sprintf("sim: event %q scheduled at %v, before now %v", ev.name(), t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.t, ev.seq, ev.kind, ev.subj, ev.fn, ev.co = t, e.seq, kind, subj, fn, co
	e.tl.enqueue(ev)
	e.st.Scheduled++
	if pending := e.tl.count(); pending > e.st.MaxPending {
		e.st.MaxPending = pending
	}
	if e.hooks.active(HookSchedule) {
		e.hooks.emit(HookSchedule, ev.t, ev.seq, ev.kind, ev.subj)
	}
	return Handle{ev, ev.gen}
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

// fire removes ev — the event tl.peek just returned — from the queue,
// advances the clock to its time, recycles the record (during its own
// callback the event is already "fired", so its handles are inert and its
// record reusable), emits the fire hooks, and runs the callback or
// dispatches the coroutine.
func (e *SeqEngine) fire(ev *Event) {
	e.tl.dequeue(ev)
	e.now = ev.t
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	fn, co := ev.fn, ev.co
	e.release(ev)
	e.st.Events++
	if e.hooks.active(HookPreFire) {
		e.hooks.emit(HookPreFire, t, seq, kind, subj)
	}
	if co != nil {
		co.dispatch()
	} else {
		fn()
	}
	if e.hooks.active(HookPostFire) {
		e.hooks.emit(HookPostFire, t, seq, kind, subj)
	}
}

// consume consumes ev — a resume for the currently running coroutine c, and
// the event tl.peek just returned — in place, without a goroutine hand-off.
// The clock advance, record recycling, counters, and hook emissions are
// exactly those of fire; only the rendezvous (and hence the
// PhysicalSwitches count) disappear, and PostFire fires adjacent to PreFire
// since the resumed body continues on the spot.
func (e *SeqEngine) consume(ev *Event, c *Coroutine) {
	e.tl.dequeue(ev)
	e.now = ev.t
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	e.release(ev)
	e.st.Events++
	e.st.LogicalResumes++
	c.resumeScheduled = false
	if e.hooks.active(HookPreFire) {
		e.hooks.emit(HookPreFire, t, seq, kind, subj)
	}
	if e.hooks.active(HookPostFire) {
		e.hooks.emit(HookPostFire, t, seq, kind, subj)
	}
}

// cancel removes a still-queued event (the Handle staleness checks have
// already passed) and recycles it.
func (e *SeqEngine) cancel(ev *Event) {
	e.tl.dequeue(ev)
	t, seq, kind, subj := ev.t, ev.seq, ev.kind, ev.subj
	e.st.Cancels++
	e.release(ev)
	if e.hooks.active(HookCancel) {
		e.hooks.emit(HookCancel, t, seq, kind, subj)
	}
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

// Close shuts the engine down: close hooks fire while every counter is final
// but coroutines are still alive, then every live coroutine is unwound so no
// goroutines leak. After Close the engine must not be used. Close is
// idempotent.
func (e *SeqEngine) Close() {
	if e.closed {
		return
	}
	if e.hooks.active(HookClose) {
		e.hooks.emit(HookClose, e.now, e.seq, "", "")
	}
	e.closed = true
	for c := range e.live {
		c.kill()
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
//
// Unlike Close, no close hooks fire and the engine stays open. After a
// *CoroutinePanic escaped a drive call, cur may still point at the (now
// done) coroutine; only a genuinely running coroutine — a Reset issued from
// inside simulated code — is rejected. The event free list is dropped (a
// warm run must serve its first allocations fresh, so the fingerprinted
// Reuses count matches a cold engine's exactly). The metrics registry, hook
// registrations, live-set map, and goroutine pool survive — re-registering
// metrics would corrupt the registry's dedup names, and the pool's warm
// goroutines are the point of resetting instead of closing.
func (e *SeqEngine) Reset(opts ...Option) {
	if e.closed {
		panic("sim: Reset on closed engine")
	}
	if e.cur != nil && e.cur.state == coRunning {
		panic("sim: Reset from inside a coroutine")
	}
	for c := range e.live {
		c.kill()
	}
	// Every outstanding Handle to a drained record turns inert; dropping the
	// references keeps the records collectable while the scratch survives.
	e.drain = e.tl.drainAll(e.drain[:0])
	for i, ev := range e.drain {
		ev.gen++
		e.drain[i] = nil
	}
	c := buildConfig(opts)
	e.now, e.limit, e.seq = 0, 0, 0
	e.cur = nil
	for i := range e.free {
		e.free[i] = nil
	}
	e.free = e.free[:0]
	e.st = EngineStats{}
	e.label = c.label
	e.noElide = c.noElide
	for _, fn := range c.onClose {
		e.hooks.OnClose(fn)
	}
	e.tl.reset(&e.st.Overflows)
}
