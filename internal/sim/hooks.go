package sim

// HookPos identifies one of the engine's fixed hook points. Hooks are the
// engine's only extension seam: every cross-cutting observer — stats sinks,
// fingerprint folding, trace streams — registers at one of these positions
// instead of being wired into the engine structurally.
//
// The taxonomy (see DESIGN.md §6):
//
//   - HookSchedule: an event was accepted into the queue. Fires after the
//     engine assigned the (time, seq) coordinates and counted the schedule.
//   - HookCancel: a queued event was removed without firing (Handle.Cancel).
//   - HookPreFire: an event is about to run. Fires after the clock advanced
//     to the event's time and the record was recycled, immediately before
//     the callback (or coroutine dispatch) executes. The PreFire stream is
//     the engine's canonical fired-event history: it is the same (time, seq)
//     sequence whether elision is on or off.
//   - HookPostFire: the event's callback returned — or, for a dispatched
//     coroutine, the coroutine parked again. For an elided (consumed
//     in-place) resume PostFire fires immediately after PreFire, before the
//     resumed body continues; consequently the PostFire stream's position
//     relative to Schedule events may differ between elided and non-elided
//     execution, while Schedule/Cancel/PreFire streams are identical.
//   - HookClose: the engine is shutting down. Fires exactly once, before
//     live coroutines are unwound, so every counter is final but the
//     registry, label, and clock are still readable. Ctx.Time is the final
//     virtual time; Kind and Subject are empty.
type HookPos uint8

const (
	HookSchedule HookPos = iota
	HookCancel
	HookPreFire
	HookPostFire
	HookClose

	numHookPos
)

// String names the position for diagnostics.
func (p HookPos) String() string {
	switch p {
	case HookSchedule:
		return "schedule"
	case HookCancel:
		return "cancel"
	case HookPreFire:
		return "pre-fire"
	case HookPostFire:
		return "post-fire"
	case HookClose:
		return "close"
	}
	return "invalid"
}

// HookCtx carries one hook invocation's context. The engine reuses a single
// HookCtx per registry, so hooks must not retain the pointer past the call;
// copy the fields out instead.
type HookCtx struct {
	Engine  Engine  // the engine that fired the hook
	Pos     HookPos // which hook point fired
	Time    Time    // the event's time (HookClose: the final clock)
	Seq     uint64  // the event's sequence number (HookClose: last assigned)
	Kind    Kind    // the event's kind (HookClose: empty)
	Subject string  // the event's subject (HookClose: empty)
}

// Hook observes one hook point. Implementations must not call back into the
// engine's scheduling or drive API from inside Fire — hooks observe the
// timeline, they do not participate in it — and must not retain ctx.
type Hook interface {
	Fire(ctx *HookCtx)
}

// HookFunc adapts a plain function to the Hook interface.
type HookFunc func(ctx *HookCtx)

// Fire implements Hook.
func (f HookFunc) Fire(ctx *HookCtx) { f(ctx) }

// Hooks is an engine's typed hook registry. Registration order is invocation
// order within a position. The registry is confined to the engine goroutine,
// like the engine itself.
//
// Dispatch is built to cost nothing when unused: each hot-path site checks a
// per-position bit in a one-byte mask (no call, no allocation) and only then
// builds the context — which is a reused struct, so even active dispatch
// allocates nothing.
type Hooks struct {
	mask uint8
	at   [numHookPos][]Hook
	ctx  HookCtx
}

// Register adds h at pos, after any hooks already registered there. It must
// not be called from inside a hook invocation.
func (hs *Hooks) Register(pos HookPos, h Hook) {
	if pos >= numHookPos {
		panic("sim: Register on invalid hook position")
	}
	hs.at[pos] = append(hs.at[pos], h)
	hs.mask |= 1 << pos
}

// OnClose registers fn as a close hook: called exactly once as the engine
// shuts down, before coroutines are unwound. Sugar for the common
// stats-sink/fingerprint pattern.
func (hs *Hooks) OnClose(fn func(Engine)) {
	hs.Register(HookClose, HookFunc(func(ctx *HookCtx) { fn(ctx.Engine) }))
}

// Registered reports how many hooks are installed at pos.
func (hs *Hooks) Registered(pos HookPos) int { return len(hs.at[pos]) }

// active reports whether any hook is registered at pos. It is the hot-path
// guard; keep it trivially inlinable.
func (hs *Hooks) active(pos HookPos) bool { return hs.mask&(1<<pos) != 0 }

// emit invokes every hook at pos in registration order. Callers must guard
// with active() so the no-hook path pays only the mask test.
func (hs *Hooks) emit(pos HookPos, t Time, seq uint64, kind Kind, subj string) {
	hs.ctx.Pos = pos
	hs.ctx.Time = t
	hs.ctx.Seq = seq
	hs.ctx.Kind = kind
	hs.ctx.Subject = subj
	for _, h := range hs.at[pos] {
		h.Fire(&hs.ctx)
	}
}
