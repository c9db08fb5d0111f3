package sim

import "fmt"

// tapeEntry is one fired event on a recording's tape: its (time, seq)
// coordinates plus the kind, kept for divergence diagnostics.
type tapeEntry struct {
	t    Time
	seq  uint64
	kind Kind
}

// Recording is the fired-event stream of one engine run: every event that
// fired (elided resumes included — the tape is the PreFire hook stream), in
// order, plus the run's overflow count (a queue-placement statistic the
// replay engine cannot re-derive without the queue machinery it elides).
// A Recording is inert data: it survives the recorded engine's Close and
// can seed any number of replay engines.
type Recording struct {
	tape      []tapeEntry
	overflows uint64
}

// Len reports the number of fired events on the tape.
func (r *Recording) Len() int { return len(r.tape) }

// Recorder captures a Recording from a live engine. It is itself a hook
// client — the proof that the hook points carry enough signal to rebuild a
// timeline: a PreFire hook appends each fired event to the tape, and a
// close hook snapshots the final overflow count.
type Recorder struct {
	eng Engine
	rec *Recording
}

// Record attaches a recorder to eng. Attach it before driving the engine;
// events fired before attachment are not on the tape, and a replay of a
// partial tape will diverge.
func Record(eng Engine) *Recorder {
	r := &Recorder{eng: eng, rec: &Recording{}}
	h := eng.Hooks()
	h.Register(HookPreFire, HookFunc(func(ctx *HookCtx) {
		r.rec.tape = append(r.rec.tape, tapeEntry{ctx.Time, ctx.Seq, ctx.Kind})
	}))
	h.Register(HookClose, HookFunc(func(ctx *HookCtx) {
		r.rec.overflows = ctx.Engine.Stats().Overflows
	}))
	return r
}

// Recording returns the captured recording. Normally called after the
// recorded engine closed; called earlier it snapshots the overflow count at
// this point instead.
func (r *Recorder) Recording() *Recording {
	if !r.eng.base().closed {
		r.rec.overflows = r.eng.Stats().Overflows
	}
	return r.rec
}

// ReplayEngine re-executes a recorded run without the reference engine's
// queue machinery: no timing wheel, no overflow heap, no ordering logic at
// all. Scheduled events are parked in a by-sequence map and the tape — the
// recording's fired-event stream — dictates which event fires next; the
// workload's callbacks and coroutines execute for real, so the engine
// verifies on every fire that the run is scheduling exactly what the
// recorded run scheduled, and panics on the first divergence.
//
// It is the second real Engine implementation, pinned byte-identical
// against the reference by the same lockstep-oracle + fingerprint
// discipline as wheel-vs-heap and pooled-vs-unpooled: driven by the same
// harness, a replay produces the same virtual timeline, the same trace
// stream, the same metrics, and therefore the same chaos fingerprint.
//
// The Overflows statistic is adopted from the recording (overflow placement
// is a property of the reference queue, not of the timeline); every other
// counter — Events, LogicalResumes, Scheduled, Cancels, Reuses, MaxPending —
// reproduces organically from re-execution.
type ReplayEngine struct {
	engineBase
	tape         []tapeEntry
	pos          int // next tape entry to fire
	byseq        map[uint64]*Event
	recOverflows uint64 // the recording's overflow count, re-adopted on Reset
}

// NewReplayEngine returns an engine that replays rec. The caller drives it
// exactly as it drove the recorded run (same workload, same drive calls);
// the engine panics on the first detected divergence rather than silently
// inventing a different timeline.
func NewReplayEngine(rec *Recording, opts ...Option) Engine {
	e := &ReplayEngine{tape: rec.tape, byseq: make(map[uint64]*Event), recOverflows: rec.overflows}
	e.init(e, buildConfig(opts))
	e.st.Overflows = rec.overflows
	return e
}

// Pending reports the number of events queued to fire.
func (e *ReplayEngine) Pending() int { return len(e.byseq) }

// Replayed reports how many tape entries have fired so far.
func (e *ReplayEngine) Replayed() int { return e.pos }

func (e *ReplayEngine) schedule(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle {
	ev := e.newEvent(t, kind, subj, fn, co)
	ev.loc = locMap
	e.byseq[ev.seq] = ev
	return e.scheduled(ev, len(e.byseq))
}

// At schedules fn to run at absolute time t.
func (e *ReplayEngine) At(t Time, kind Kind, fn func()) Handle {
	return e.schedule(t, kind, "", fn, nil)
}

// AtNamed is At with a subject.
func (e *ReplayEngine) AtNamed(t Time, kind Kind, subject string, fn func()) Handle {
	return e.schedule(t, kind, subject, fn, nil)
}

// After schedules fn to run d after the current time.
func (e *ReplayEngine) After(d Duration, kind Kind, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, kind))
	}
	return e.schedule(e.now.Add(d), kind, "", fn, nil)
}

// AfterNamed is After with a subject.
func (e *ReplayEngine) AfterNamed(d Duration, kind Kind, subject string, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %s:%q", d, subject, kind))
	}
	return e.schedule(e.now.Add(d), kind, subject, fn, nil)
}

// head returns the event the tape says fires next, or nil when the tape is
// exhausted, verifying on the way that the replayed run actually scheduled
// it with the same coordinates.
func (e *ReplayEngine) head() *Event {
	if e.pos >= len(e.tape) {
		return nil
	}
	te := e.tape[e.pos]
	ev := e.byseq[te.seq]
	if ev == nil {
		panic(fmt.Sprintf(
			"sim: replay diverged at tape position %d: recording fired event seq %d (%q, t=%v), but the replayed run has no such event queued",
			e.pos, te.seq, te.kind, te.t))
	}
	if ev.t != te.t || ev.kind != te.kind {
		panic(fmt.Sprintf(
			"sim: replay diverged at tape position %d: recording fired seq %d as %q at t=%v, replayed run scheduled it as %q at t=%v",
			e.pos, te.seq, te.kind, te.t, ev.kind, ev.t))
	}
	return ev
}

// pastTape panics if the replay is driven past the end of its recording:
// the tape is exhausted but events within the drive ceiling are still
// queued, which the recorded run would have fired.
func (e *ReplayEngine) pastTape(limit Time) {
	for _, ev := range e.byseq {
		if ev.t <= limit {
			panic(fmt.Sprintf(
				"sim: replay driven past the end of its recording: event %q at t=%v is due but the tape (%d entries) is exhausted",
				ev.name(), ev.t, len(e.tape)))
		}
	}
}

// fire pops the tape head and fires ev (which must be the head's event).
func (e *ReplayEngine) fire(ev *Event) {
	e.pos++
	delete(e.byseq, ev.seq)
	ev.loc = locNone
	e.finishFire(ev)
}

// Step fires the next recorded event, advancing the clock to its time. It
// reports false when the recording is fully replayed and nothing is queued.
func (e *ReplayEngine) Step() bool {
	ev := e.head()
	if ev == nil {
		e.pastTape(maxTime)
		return false
	}
	e.limit = ev.t
	e.fire(ev)
	return true
}

// Run replays the remainder of the tape.
func (e *ReplayEngine) Run() {
	e.limit = maxTime
	for {
		ev := e.head()
		if ev == nil {
			e.pastTape(maxTime)
			return
		}
		e.fire(ev)
	}
}

// RunUntil replays recorded events with time <= t, then sets the clock to t.
func (e *ReplayEngine) RunUntil(t Time) {
	e.limit = t
	for {
		ev := e.head()
		if ev == nil || ev.t > t {
			if ev == nil {
				e.pastTape(t)
			}
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d, replaying all recorded events in the
// window.
func (e *ReplayEngine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Close shuts the engine down, unwinding every live coroutine. Close is
// idempotent.
func (e *ReplayEngine) Close() {
	if !e.beginClose() {
		return
	}
	for _, ev := range e.byseq {
		ev.loc = locNone
		ev.gen++
	}
	e.byseq = nil
	e.free = nil
	e.tape = nil
}

// Reset rewinds the engine to the start of its tape for another replay of
// the same recording; see Engine.Reset for the shared contract. Queued
// events from the abandoned run turn inert and the recording's overflow
// count is re-adopted, exactly as at construction.
func (e *ReplayEngine) Reset(opts ...Option) {
	e.beginReset()
	for seq, ev := range e.byseq {
		ev.loc = locNone
		ev.gen++
		delete(e.byseq, seq)
	}
	e.pos = 0
	e.resetBase(buildConfig(opts))
	e.st.Overflows = e.recOverflows
}

// --- impl ---

func (e *ReplayEngine) scheduleEvent(t Time, kind Kind, subj string, fn func(), co *Coroutine) Handle {
	return e.schedule(t, kind, subj, fn, co)
}

func (e *ReplayEngine) nextEvent() *Event { return e.head() }

func (e *ReplayEngine) fireNext(ev *Event) { e.fire(ev) }

func (e *ReplayEngine) consumeNext(ev *Event, c *Coroutine) {
	e.pos++
	delete(e.byseq, ev.seq)
	ev.loc = locNone
	e.finishConsume(ev, c)
}

func (e *ReplayEngine) cancelQueued(ev *Event) {
	delete(e.byseq, ev.seq)
	ev.loc = locNone
	e.cancelled(ev)
}
