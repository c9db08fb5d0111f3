package sim

// Kind labels an event type for diagnostics and tracing. Kinds are static
// strings — use constants, never fmt.Sprintf or concatenation — so the hot
// path stores one string header and formats nothing. Dynamic context (which
// thread's timer, which worker's exec) goes in the separate subject field of
// AtNamed/AfterNamed and is only combined with the kind when a name is
// actually rendered.
type Kind string

// Where an event record currently lives. The queue is a two-level timing
// wheel with a sorted overflow heap; every queued event is in exactly one of
// the three places (a wheel slot list, or the heap), and released records
// are in none.
const (
	locNone  = iota // not queued: free, fired, or cancelled
	locWheel        // linked into a wheel slot list (slot says which)
	locHeap         // in the overflow heap (index says where)
	locMap          // in the replay engine's by-sequence map
)

// Event is a scheduled callback, ordered by time with ties broken by
// scheduling order (sequence number), which makes the simulation fully
// deterministic. Events are pooled: once fired or cancelled, the record is
// recycled for a later schedule. External code therefore never holds an
// *Event; it holds a generation-checked Handle.
type Event struct {
	eng  impl // owning engine; routes Handle.Cancel to its queue
	t    Time
	seq  uint64 // tie-break within equal times; engine-global schedule order
	gen  uint64 // bumped on every recycle; stale Handles become inert
	kind Kind
	subj string     // optional subject ("who"), rendered lazily
	fn   func()     // callback, nil for coroutine dispatch events
	co   *Coroutine // dispatch target; avoids a closure per resume

	loc   int8   // locNone, locWheel, locHeap, locMap
	slot  int32  // wheel slot id when loc == locWheel
	index int    // position in the overflow heap, -1 when not there
	next  *Event // wheel slot list links (intrusive, allocation-free)
	prev  *Event
}

// before reports whether a fires before b in the engine's total (time, seq)
// order. seq is engine-unique, so the order is strict.
func (ev *Event) before(b *Event) bool {
	if ev.t != b.t {
		return ev.t < b.t
	}
	return ev.seq < b.seq
}

// name renders the debug name. Cold path only: panics, tracing, tests.
func (ev *Event) name() string {
	if ev.subj == "" {
		return string(ev.kind)
	}
	return ev.subj + ":" + string(ev.kind)
}

// Handle refers to one scheduled event. It stays valid forever: once the
// event fires or is cancelled (and its record recycled), the handle turns
// inert — Active reports false and Cancel does nothing. The zero Handle is
// inert.
type Handle struct {
	ev  *Event
	gen uint64
}

// Active reports whether the event is still queued to fire.
func (h Handle) Active() bool {
	return h.ev != nil && h.ev.gen == h.gen
}

// Time reports when the event will fire; zero when no longer Active.
func (h Handle) Time() Time {
	if !h.Active() {
		return 0
	}
	return h.ev.t
}

// Name renders the event's debug name; empty when no longer Active.
func (h Handle) Name() string {
	if !h.Active() {
		return ""
	}
	return h.ev.name()
}

// Cancel removes the event from the queue — O(1) from a wheel slot,
// O(log n) from the overflow heap — and recycles it immediately. No
// tombstone is left behind, so Pending stays exact. It reports whether it
// cancelled anything; cancelling an event that already fired or was already
// cancelled is an inert no-op.
//
// The staleness check reads only gen: a matching generation implies the
// event is still queued, because every path that takes it out of a queue —
// fire, consume, cancel, Close — bumps gen.
func (h Handle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	ev.eng.cancelQueued(ev)
	return true
}

// eventHeap is an indexed min-heap of events ordered by (time, seq). It is
// the queue's sorted overflow level — events beyond the timing wheel's
// horizon, plus the rare event scheduled behind a wheel window that jumped
// ahead over idle time — and doubles as the oracle the wheel is property-
// tested against. The sift routines are hand-rolled (rather than
// container/heap) so removal and pop stay free of interface conversions.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	return h[i].before(h[j])
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves; it reports whether i moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h.swap(i, least)
		i = least
	}
	return i > start
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.up(ev.index)
}

func (h *eventHeap) pop() *Event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].index = 0
	old[n] = nil
	*h = old[:n]
	if n > 1 {
		(*h).down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at an arbitrary heap position in O(log n).
func (h *eventHeap) remove(ev *Event) {
	i := ev.index
	old := *h
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !(*h).down(i) {
			(*h).up(i)
		}
	}
	ev.index = -1
}
