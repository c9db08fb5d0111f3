package trace

import (
	"fmt"
	"strings"

	"schedact/internal/sim"
)

// Kind identifies a typed trace event. Every scheduling layer emits records
// tagged with one of these, and every consumer — the chaos auditor, the
// fingerprinter, the latency deriver, the Chrome exporter — dispatches on
// Kind and the integer arguments instead of parsing rendered text. Human-
// readable text exists only in the renderers below, produced lazily when a
// sink actually prints.
type Kind uint8

const (
	// KindMsg is a generic pre-formatted message: Name holds the category,
	// Aux the rendered text. Typed consumers ignore it. It stays value 0:
	// the fingerprinter hashes the Kind value, so kinds are never
	// renumbered.
	KindMsg Kind = iota

	// --- scheduler-activation kernel (internal/core) ---

	// KindUpcall: upcall delivered. Name=space, A=activation id,
	// B=event count, C/D=up to four packed EvRefs (see PackEvRefs).
	KindUpcall
	// KindStillborn: activation discarded before reaching user code.
	// Name=space, A=activation id, B=events requeued.
	KindStillborn
	// KindTake: processor involuntarily removed from a space. Name=space.
	KindTake
	// KindInterrupt: hosted activation stopped, processor kept. Name=space.
	KindInterrupt
	// KindInterruptStale: InterruptProcessor request rejected as stale.
	// Name=space.
	KindInterruptStale
	// KindYield: processor voluntarily given back. Name=space, A=act id.
	KindYield
	// KindNotifyDelayed: events queued, space has no processors.
	// Name=space, A=event count.
	KindNotifyDelayed
	// KindUnblockDelayed: unblock notification queued, no processors.
	// Name=space, A=activation id.
	KindUnblockDelayed
	// KindActBlock: activation blocked in the kernel. Name=space,
	// A=activation id, Aux=reason.
	KindActBlock
	// KindActUnblock: blocked activation's awaited event completed.
	// Name=space, A=activation id.
	KindActUnblock
	// KindAddMore: "add more processors" downcall. Name=space,
	// A=additional, B=resulting want.
	KindAddMore
	// KindIdleDowncall: "this processor is idle" downcall. Name=space,
	// A=resulting want.
	KindIdleDowncall
	// KindFault: page fault blocked an activation. Name=space,
	// A=activation id, B=page.
	KindFault
	// KindFaultDelayed: Blocked upcall held, entry page mid-fetch.
	// Name=space, A=page.
	KindFaultDelayed
	// KindDebugStop: activation frozen by the debugger. Name=space, A=act id.
	KindDebugStop
	// KindDebugResume: debugger-stopped activation resumed. Name=space,
	// A=activation id.
	KindDebugResume

	// --- Topaz baseline kernel (internal/kernel) ---

	// KindDispatch: kernel thread placed on a CPU. Name=thread.
	KindDispatch
	// KindPreempt: kernel thread involuntarily descheduled. Name=thread.
	KindPreempt
	// KindExit: kernel thread exited. Name=thread.
	KindExit
	// KindKTBlock: kernel thread blocked. Name=thread, Aux=reason.
	KindKTBlock

	// --- user-level thread system (internal/uthread) ---

	// KindULDispatch: user-level thread switched onto a processor.
	// Name=thread.
	KindULDispatch
	// KindULReady: user-level thread made ready. Name=thread.
	KindULReady
	// KindULBlock: user-level thread blocked. Name=thread, Aux=reason.
	KindULBlock
	// KindULExit: user-level thread exited. Name=thread.
	KindULExit
	// KindULIdle: virtual processor parked with no work. A=vp id.
	KindULIdle

	// --- machine (internal/machine) ---

	// KindIO: disk request scheduled. A=request number, B=service
	// latency in nanoseconds.
	KindIO

	// --- fault injection (internal/chaos) ---

	// KindChaosPreempt: storm preemption landed. A=target processor.
	KindChaosPreempt
	// KindChaosRebalance: forced reallocation pass.
	KindChaosRebalance
	// KindChaosEvict: eviction storm hit. A=page.
	KindChaosEvict
	// KindChaosPulse: interloper demand pulse. A=demanded processors.
	KindChaosPulse

	kindCount // sentinel; keep last
)

// kindCats maps each Kind to the category label satrace has always printed.
// Several kinds share a category (both downcalls are "downcall", both
// debugger events are "debug") so rendered output groups exactly as before
// the typed refactor.
var kindCats = [kindCount]string{
	KindMsg:            "msg", // overridden by Record.Cat
	KindUpcall:         "upcall",
	KindStillborn:      "stillborn",
	KindTake:           "take",
	KindInterrupt:      "interrupt",
	KindInterruptStale: "interrupt",
	KindYield:          "yield",
	KindNotifyDelayed:  "notify",
	KindUnblockDelayed: "notify",
	KindActBlock:       "block",
	KindActUnblock:     "unblock",
	KindAddMore:        "downcall",
	KindIdleDowncall:   "downcall",
	KindFault:          "fault",
	KindFaultDelayed:   "fault",
	KindDebugStop:      "debug",
	KindDebugResume:    "debug",
	KindDispatch:       "dispatch",
	KindPreempt:        "preempt",
	KindExit:           "exit",
	KindKTBlock:        "block",
	KindULDispatch:     "uldispatch",
	KindULReady:        "ulready",
	KindULBlock:        "ulblock",
	KindULExit:         "ulexit",
	KindULIdle:         "ulidle",
	KindIO:             "io",
	KindChaosPreempt:   "chaos",
	KindChaosRebalance: "chaos",
	KindChaosEvict:     "chaos",
	KindChaosPulse:     "chaos",
}

// Cat returns the kind's constant category label.
func (k Kind) Cat() string {
	if k < kindCount {
		return kindCats[k]
	}
	return "invalid"
}

// Record is one typed trace event: a fixed-size value emitted allocation-
// free from the hot paths of every scheduling layer. The Name and Aux
// fields carry pre-existing strings (space names, thread names, block
// reasons); assigning them copies only the string header. All formatting
// is deferred to Cat/Msg/String, which run only when a sink prints.
type Record struct {
	T    sim.Time
	CPU  int32 // -1 when not CPU-specific
	Kind Kind
	// Name is the primary subject: the address space or thread the event
	// concerns. For KindMsg it holds the category label instead.
	Name string
	// Aux is the secondary string: a block reason, or the pre-rendered
	// message of a KindMsg record.
	Aux string
	// A through D are kind-specific integer arguments — activation ids,
	// processor and page numbers, event counts, packed EvRefs, latencies.
	// Their meaning per kind is documented on the Kind constants.
	A, B, C, D int64
}

// Cat returns the record's category label (constant per kind; KindMsg
// carries its own).
func (r Record) Cat() string {
	if r.Kind == KindMsg {
		return r.Name
	}
	return r.Kind.Cat()
}

// Msg renders the record's human-readable message. This is the only place
// trace text is produced; nothing on the emit path calls it.
func (r Record) Msg() string {
	switch r.Kind {
	case KindMsg:
		return r.Aux
	case KindUpcall:
		return fmt.Sprintf("%s act%d %s", r.Name, r.A, renderEvRefs(r.B, r.C, r.D))
	case KindStillborn:
		return fmt.Sprintf("%s act%d, %d events requeued", r.Name, r.A, r.B)
	case KindTake:
		return "from " + r.Name
	case KindInterrupt:
		return r.Name
	case KindInterruptStale:
		return r.Name + ": stale request rejected"
	case KindYield, KindActUnblock:
		return fmt.Sprintf("%s act%d", r.Name, r.A)
	case KindNotifyDelayed:
		return fmt.Sprintf("%s: %d events delayed (no processors)", r.Name, r.A)
	case KindUnblockDelayed:
		return fmt.Sprintf("%s: unblock act%d delayed (no processors)", r.Name, r.A)
	case KindActBlock:
		return fmt.Sprintf("%s act%d: %s", r.Name, r.A, r.Aux)
	case KindAddMore:
		return fmt.Sprintf("%s: add %d more (want=%d)", r.Name, r.A, r.B)
	case KindIdleDowncall:
		return fmt.Sprintf("%s: processor idle (want=%d)", r.Name, r.A)
	case KindFault:
		return fmt.Sprintf("%s act%d page %d", r.Name, r.A, r.B)
	case KindFaultDelayed:
		return fmt.Sprintf("%s: upcall delayed, entry page %d mid-fetch", r.Name, r.A)
	case KindDebugStop:
		return fmt.Sprintf("stop %s act%d (no upcall)", r.Name, r.A)
	case KindDebugResume:
		return fmt.Sprintf("resume %s act%d (direct)", r.Name, r.A)
	case KindDispatch, KindPreempt, KindExit, KindULDispatch, KindULReady, KindULExit:
		return r.Name
	case KindKTBlock, KindULBlock:
		return r.Name + ": " + r.Aux
	case KindULIdle:
		return fmt.Sprintf("vp%d parked", r.A)
	case KindIO:
		return fmt.Sprintf("disk request #%d (%v)", r.A, sim.Duration(r.B))
	case KindChaosPreempt:
		return fmt.Sprintf("storm preempt cpu%d", r.A)
	case KindChaosRebalance:
		return "forced rebalance"
	case KindChaosEvict:
		return fmt.Sprintf("evict page %d", r.A)
	case KindChaosPulse:
		return fmt.Sprintf("interloper demand %d", r.A)
	}
	return fmt.Sprintf("kind%d(%d,%d,%d,%d)", r.Kind, r.A, r.B, r.C, r.D)
}

// String renders the record in satrace's one-line format.
func (r Record) String() string {
	cpu := "  -"
	if r.CPU >= 0 {
		cpu = fmt.Sprintf("cpu%d", r.CPU)
	}
	return fmt.Sprintf("%12.3fms %-4s %-10s %s", r.T.Ms(), cpu, r.Cat(), r.Msg())
}

// --- packed upcall event references ---

// UpEv is an upcall event kind as carried in a packed EvRef: the Table 2
// vector. Values mirror core.EventKind one-for-one (internal/core asserts
// the correspondence in its tests).
type UpEv uint32

const (
	UpAddProcessor UpEv = iota
	UpPreempted
	UpBlocked
	UpUnblocked
)

func (e UpEv) String() string {
	switch e {
	case UpAddProcessor:
		return "AddProcessor"
	case UpPreempted:
		return "Preempted"
	case UpBlocked:
		return "Blocked"
	case UpUnblocked:
		return "Unblocked"
	}
	return "invalid"
}

// EvRef packs one upcall event — kind plus affected activation id — into 32
// bits: kind+1 in the top four bits (so the zero EvRef means "no event"),
// activation id + 1 in the rest (0 = no activation, as for AddProcessor).
type EvRef uint32

const evIDMask = 1<<28 - 1

// MakeEvRef packs an event reference. actID < 0 records "no activation".
func MakeEvRef(kind UpEv, actID int) EvRef {
	id := uint32(0)
	if actID >= 0 {
		id = uint32(actID) + 1
	}
	return EvRef((uint32(kind)+1)<<28 | id&evIDMask)
}

// Kind returns the packed event kind.
func (e EvRef) Kind() UpEv { return UpEv(e>>28) - 1 }

// Act returns the packed activation id, false if the event carried none.
func (e EvRef) Act() (int, bool) {
	id := uint32(e) & evIDMask
	if id == 0 {
		return 0, false
	}
	return int(id - 1), true
}

func (e EvRef) String() string {
	if id, ok := e.Act(); ok {
		return fmt.Sprintf("%s(act%d)", e.Kind(), id)
	}
	return e.Kind().String()
}

// PackEvRefs packs up to four event references into the two int64 args a
// KindUpcall record carries (two refs per word, low half first).
func PackEvRefs(refs [4]EvRef) (c, d int64) {
	c = int64(uint64(refs[0]) | uint64(refs[1])<<32)
	d = int64(uint64(refs[2]) | uint64(refs[3])<<32)
	return c, d
}

// EvRef unpacks the i-th (0..3) event reference of a KindUpcall record,
// reporting false when the slot is empty or i is past the recorded count.
func (r Record) EvRef(i int) (EvRef, bool) {
	if r.Kind != KindUpcall || i < 0 || i > 3 || int64(i) >= r.B {
		return 0, false
	}
	w := uint64(r.C)
	if i >= 2 {
		w = uint64(r.D)
	}
	ref := EvRef(w >> (32 * uint(i%2)))
	return ref, ref != 0
}

// renderEvRefs renders a packed event vector exactly as the old %v of
// []core.Event did — "[AddProcessor Preempted(act5)]" — appending
// " +n more" for the rare upcall carrying more than the four inline slots.
func renderEvRefs(count, c, d int64) string {
	var b strings.Builder
	b.WriteByte('[')
	refs := [4]EvRef{
		EvRef(uint64(c)), EvRef(uint64(c) >> 32),
		EvRef(uint64(d)), EvRef(uint64(d) >> 32),
	}
	for i := 0; i < 4 && int64(i) < count; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(refs[i].String())
	}
	if count > 4 {
		fmt.Fprintf(&b, " +%d more", count-4)
	}
	b.WriteByte(']')
	return b.String()
}
