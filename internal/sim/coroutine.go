package sim

import (
	"fmt"
	"runtime/debug"
)

// coState tracks where a coroutine is in its lifecycle.
type coState int

const (
	coCreated coState = iota // goroutine armed, body not yet started
	coParked                 // body started, currently parked
	coRunning                // currently executing (engine blocked in hand-off)
	coDone                   // body returned or unwound
)

func (s coState) String() string {
	switch s {
	case coCreated:
		return "created"
	case coParked:
		return "parked"
	case coRunning:
		return "running"
	case coDone:
		return "done"
	}
	return "invalid"
}

// killSentinel is the panic value used to unwind coroutines on shutdown.
type killSentinel struct{}

// Event kinds for the coroutine machinery.
const (
	kindResume Kind = "co-resume"
	kindWake   Kind = "co-wake"
)

// CoroutinePanic wraps a panic that escaped a coroutine body. The panic is
// recovered on the coroutine's goroutine — so a pooled goroutine completes
// its final hand-off cleanly and returns to its pool instead of dying with a
// poisoned arm channel — and re-raised on the engine goroutine, where the
// driving Run/Step call (and any recover around it) can observe it.
type CoroutinePanic struct {
	Co    string // coroutine debug name
	Value any    // the original panic value
	Stack []byte // stack of the coroutine goroutine at the point of recovery
}

func (p *CoroutinePanic) Error() string {
	return fmt.Sprintf("sim: coroutine %q panicked: %v\n%s", p.Co, p.Value, p.Stack)
}

// Coroutine is a simulated execution context: a goroutine that runs only when
// the engine hands control to it, and hands control back by parking. Exactly
// one coroutine (or event callback) executes at a time, so simulated code
// needs no locking and the timeline is deterministic.
//
// Control transfers ride one unbuffered channel: because the hand-off is
// strict — at any instant exactly one side holds the token — a single
// channel serves both directions, and each transfer is one send/receive
// rendezvous. Resume events carry the coroutine pointer in the event record
// itself and their kind/subject are static strings, so scheduling a resume
// is allocation-free.
//
// Two optimizations make the common transfers cheaper still, without
// changing anything simulated code can observe:
//
//   - the time-charge fast path (Sleep, InlineCharge) consumes a resume that
//     is already the engine's next event in place, on the same goroutine,
//     skipping both rendezvous — Stats().PhysicalSwitches counts only the
//     hand-offs actually paid, while Stats().LogicalResumes counts them all;
//   - on a pooled engine (Pool.NewEngine) the hosting goroutine comes from a
//     warm pool and is re-armed for the next Engine.Go when the body ends.
type Coroutine struct {
	eng    *SeqEngine // owning engine
	name   string
	hand   chan struct{}   // the hand-off token channel
	spare  *spare          // pooled goroutine hosting the body, nil when unpooled
	escape *CoroutinePanic // panic that unwound the body, re-raised by the engine
	state  coState
	killed bool

	parkReason      string
	resumeScheduled bool
}

// Go creates a coroutine that will execute fn. The coroutine does not start
// until its first Unpark; this lets schedulers create execution contexts and
// dispatch them later.
func (e *SeqEngine) Go(name string, fn func(*Coroutine)) *Coroutine {
	if e.closed {
		panic("sim: Go on closed engine")
	}
	c := &Coroutine{eng: e, name: name}
	e.live[c] = struct{}{}
	if e.pool != nil {
		e.pool.launch(c, fn)
	} else {
		c.hand = make(chan struct{})
		go c.run(fn)
	}
	return c
}

// run hosts one coroutine body on the current goroutine: wait for the first
// dispatch, execute, and complete the final hand-off. It returns rather than
// exiting, so a pooled goroutine can host the next body.
func (c *Coroutine) run(fn func(*Coroutine)) {
	<-c.hand // wait for first dispatch (or kill)
	c.body(fn)
	c.state = coDone
	delete(c.eng.live, c)
	c.hand <- struct{}{} // final hand-off back to the engine
}

// body runs fn, absorbing the kill unwind and capturing any real panic into
// c.escape for the engine to re-raise after the final hand-off.
func (c *Coroutine) body(fn func(*Coroutine)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				c.escape = &CoroutinePanic{Co: c.name, Value: r, Stack: debug.Stack()}
			}
		}
	}()
	if c.killed {
		panic(killSentinel{})
	}
	c.state = coRunning
	fn(c)
}

// retire finishes the engine side of a coroutine's final hand-off: return
// the hosting goroutine to the pool and re-raise any panic that unwound the
// body. No-op while the coroutine is merely parked.
func (e *SeqEngine) retire(c *Coroutine) {
	if c.state != coDone {
		return
	}
	if c.spare != nil {
		e.pool.put(c.spare)
		c.spare = nil
	}
	if esc := c.escape; esc != nil {
		c.escape = nil
		panic(esc)
	}
}

// Name reports the debug name of the coroutine.
func (c *Coroutine) Name() string { return c.name }

// Done reports whether the coroutine body has returned.
func (c *Coroutine) Done() bool { return c.state == coDone }

// Parked reports whether the coroutine is parked (or not yet started).
func (c *Coroutine) Parked() bool { return c.state == coParked || c.state == coCreated }

// ParkReason reports the reason string of the current park, for diagnostics.
func (c *Coroutine) ParkReason() string { return c.parkReason }

// ResumeScheduled reports whether an Unpark (or Sleep wake-up) is already
// pending for this coroutine. Schedulers use this to avoid double-resuming a
// context that completed its CPU demand and was preempted in the same
// instant.
func (c *Coroutine) ResumeScheduled() bool { return c.resumeScheduled }

// Running reports whether the coroutine is the one currently executing.
func (c *Coroutine) Running() bool { return c.state == coRunning }

// Park hands control back to the engine until some event calls Unpark.
// It must be called from within the coroutine itself.
func (c *Coroutine) Park(reason string) {
	if c.eng.cur != c {
		panic(fmt.Sprintf("sim: Park(%q) on %s called from outside the coroutine", reason, c.name))
	}
	c.parkReason = reason
	c.state = coParked
	c.await()
}

// await is the parked side of the physical hand-off: give the token to the
// engine, block until the next dispatch, and re-enter the running state.
func (c *Coroutine) await() {
	c.hand <- struct{}{}
	<-c.hand
	if c.killed {
		panic(killSentinel{})
	}
	c.state = coRunning
	c.parkReason = ""
}

// Sleep parks the coroutine for d of virtual time. The wake-up counts as the
// coroutine's scheduled resume, so an Unpark during the sleep panics rather
// than double-dispatching.
//
// Fast path: when the wake-up is the engine's next event anyway — no other
// event fires in [now, now+d], the dominant case for calibrated CPU charges —
// the clock advances in place and the body keeps executing on the same
// goroutine. The wake event is still scheduled, ordered, and recycled through
// the normal queue, so event sequence numbers, queue statistics, and wheel
// state are byte-identical to the parked path; only the goroutine rendezvous
// are skipped.
func (c *Coroutine) Sleep(d Duration) {
	e := c.eng
	if e.cur != c {
		panic(fmt.Sprintf("sim: Sleep on %s called from outside the coroutine", c.name))
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Sleep %v on %s", d, c.name))
	}
	c.resumeScheduled = true
	ev := e.schedule(e.now.Add(d), kindWake, c.name, nil, c).ev
	if !e.noElide && ev.t <= e.limit && e.tl.peek() == ev {
		e.consume(ev, c)
		return
	}
	c.Park("sleep")
}

// InlineCharge is the worker-layer fast path for "schedule a completion
// callback, park until it fires". h must be a plain-callback event the
// caller just scheduled (typically its charge-completion timer). When h is
// the engine's next event and fires within the current drive window,
// InlineCharge runs the whole slow-path sequence in place on the calling
// goroutine: the coroutine observably parks with reason, the callback fires
// exactly as the engine loop would fire it (with Current() == nil), and if
// the callback immediately rescheduled this coroutine — the common completion
// case — the resume is consumed in place too. Reports false, with no state
// touched, when the fast path does not apply; the caller then parks normally.
//
// The callback must not assume it runs on the engine's driving goroutine;
// engine state is single-threaded by the hand-off discipline either way, so
// this only matters to code doing goroutine-identity tricks, which simulated
// code must not do.
func (c *Coroutine) InlineCharge(h Handle, reason string) bool {
	e := c.eng
	if e.cur != c {
		panic(fmt.Sprintf("sim: InlineCharge(%q) on %s called from outside the coroutine", reason, c.name))
	}
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.co != nil {
		return false
	}
	if e.noElide || ev.t > e.limit || e.tl.peek() != ev {
		return false
	}
	// Park observably, then fire the callback exactly as the engine loop
	// would have: the engine is still blocked in our dispatch, so we are the
	// engine for the duration.
	c.parkReason = reason
	c.state = coParked
	e.cur = nil
	e.fire(ev)
	if c.resumeScheduled {
		if next := e.tl.peek(); next != nil && next.co == c && next.t <= e.limit {
			// The callback rescheduled us and nothing fires in between:
			// consume our own resume in place as well.
			e.consume(next, c)
			e.cur = c
			c.state = coRunning
			c.parkReason = ""
			return true
		}
	}
	// The callback did not (immediately) resume us: fall back to a physical
	// park. The dispatch that is blocked on our hand channel picks the
	// timeline up exactly where the slow path would.
	c.await()
	return true
}

// Unpark schedules the coroutine to resume at the current virtual time. It
// panics if the coroutine is running, done, or already scheduled to resume:
// callers own the lifecycle of the contexts they dispatch, and a double
// unpark always indicates a scheduler bug.
func (c *Coroutine) Unpark() {
	c.UnparkAt(c.eng.now)
}

// UnparkAt schedules the coroutine to resume at time t.
func (c *Coroutine) UnparkAt(t Time) {
	if c.state == coDone {
		panic(fmt.Sprintf("sim: Unpark on finished coroutine %s", c.name))
	}
	if c.state == coRunning {
		panic(fmt.Sprintf("sim: Unpark on running coroutine %s", c.name))
	}
	if c.resumeScheduled {
		panic(fmt.Sprintf("sim: duplicate Unpark on coroutine %s", c.name))
	}
	c.resumeScheduled = true
	c.eng.schedule(t, kindResume, c.name, nil, c)
}

// Destroy unwinds a parked or never-started coroutine immediately, running no
// more of its body (deferred functions in the body do run, as on Close). The
// unwind is a pure goroutine rendezvous: no events are scheduled or
// cancelled, the clock and the trace are untouched, and no resume statistics
// move — so destroying an abandoned context mid-run cannot perturb a
// deterministic timeline. Schedulers use this to reclaim execution contexts
// (and their pooled goroutines) that will never be dispatched again, instead
// of leaving them parked until Engine.Close.
//
// Destroy panics on a coroutine with a resume already scheduled: the pending
// resume would fire against a dead coroutine and be absorbed without
// counting, diverging from a run that dispatched it. Callers must check
// ResumeScheduled first and leave such contexts for Close to reap. Destroying
// a running coroutine panics; a done coroutine (or one on a closed engine)
// is a no-op.
func (c *Coroutine) Destroy() {
	e := c.eng
	if e.closed || c.state == coDone {
		return
	}
	if c.state == coRunning || e.cur == c {
		panic(fmt.Sprintf("sim: Destroy on running coroutine %s", c.name))
	}
	if c.resumeScheduled {
		panic(fmt.Sprintf("sim: Destroy on coroutine %s with a resume scheduled", c.name))
	}
	c.kill()
}

// dispatch transfers control to the coroutine and blocks until it parks or
// finishes. It runs in the engine goroutine, inside the resume event.
func (c *Coroutine) dispatch() {
	c.resumeScheduled = false
	if c.state == coDone {
		return
	}
	e := c.eng
	prev := e.cur
	e.cur = c
	e.st.LogicalResumes++
	e.st.PhysicalSwitches++
	c.hand <- struct{}{}
	<-c.hand
	e.cur = prev
	e.retire(c)
}

// kill unwinds a parked or not-yet-started coroutine. Called from
// Engine.Close, Engine.Reset, and Coroutine.Destroy only.
func (c *Coroutine) kill() {
	if c.state == coDone || c.state == coRunning {
		return
	}
	c.killed = true
	c.hand <- struct{}{}
	<-c.hand
	c.eng.retire(c)
}

// Current reports the coroutine currently executing, or nil when the engine
// is running a plain event callback.
func (e *SeqEngine) Current() *Coroutine { return e.cur }
