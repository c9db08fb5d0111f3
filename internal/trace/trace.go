// Package trace records scheduling events from the simulated kernel and
// thread systems as typed, fixed-size records — the system's single event
// currency. Every layer (machine, kernel, core, uthread, chaos) emits
// Records tagged with a Kind and integer arguments; consumers (the chaos
// auditor, the replay fingerprinter, the latency deriver, the Chrome
// exporter, satrace) dispatch on those fields. Text is rendered lazily,
// only when a sink actually prints, so the emit path allocates nothing.
//
// Tracing is optional everywhere: a nil *Log is valid and records nothing,
// so hot paths pay only a nil check when tracing is off.
package trace

import (
	"fmt"
	"io"
)

// Log is a bounded in-memory event log, optionally mirrored to a writer.
type Log struct {
	Max       int       // maximum retained entries; 0 means unbounded
	Live      io.Writer // if non-nil, entries are written as they arrive
	list      []Record
	lost      uint64
	noRetain  bool            // observer-only: records flow to observers/Live, none kept
	filterOn  bool            // a category filter is installed (see Filter)
	kindMask  uint64          // bit per Kind: set = kept (typed kinds only)
	msgCats   map[string]bool // KindMsg categories kept (dynamic, in Name)
	observers []func(Record)
}

// kindMask is a bit per Kind; this trips at compile time if the enum ever
// outgrows the word.
var _ [64 - int(kindCount)]struct{}

// New returns a log retaining at most max entries (0 = unbounded). A
// bounded log preallocates its ring up front, so steady-state recording
// performs no allocation at all.
func New(max int) *Log {
	l := &Log{Max: max}
	if max > 0 {
		l.list = make([]Record, 0, max)
	}
	return l
}

// NewStream returns an observer-only log: records flow through the
// observer chain (and Live, if set) but none are retained — Entries stays
// empty. Runs whose every consumer hangs off Observe (the chaos sweep's
// auditor, fingerprinter, and latency deriver) use this to skip the ring
// append and half-drop copies on the hottest per-record path; runs that
// read the log afterwards (golden traces, satrace, the Chrome exporter)
// keep a retaining New log.
func NewStream() *Log { return &Log{noRetain: true} }

// Reset clears the retained records, the lost count, and any category
// filter, keeping the ring's capacity, the retention mode, and —
// deliberately — the observer list: long-lived stream consumers (auditor,
// fingerprinter, latency deriver) attach once per log and reset their own
// state per run, so a warm run re-records through the same observer chain
// a cold run would build.
func (l *Log) Reset() {
	l.list = l.list[:0]
	l.lost = 0
	l.filterOn = false
	l.kindMask = 0
	l.msgCats = nil
}

// Filter restricts the log to the given categories (Record.Cat values).
// Call before recording. The filter compiles to a Kind bitmask — every
// typed kind whose constant category matches is one set bit — so the
// per-record check is a shift and mask, not a map lookup; only KindMsg
// records (dynamic category) still consult a category set.
func (l *Log) Filter(cats ...string) *Log {
	l.filterOn = true
	l.kindMask = 0
	l.msgCats = make(map[string]bool, len(cats))
	for _, c := range cats {
		l.msgCats[c] = true
		for k := Kind(0); k < kindCount; k++ {
			if k != KindMsg && kindCats[k] == c {
				l.kindMask |= 1 << k
			}
		}
	}
	return l
}

// keeps reports whether the installed filter keeps r.
func (l *Log) keeps(r Record) bool {
	if r.Kind == KindMsg {
		return l.msgCats[r.Name]
	}
	return l.kindMask&(1<<r.Kind) != 0
}

// Filtered reports whether a category filter is installed. Consumers that
// derive conservation checks from the stream (the chaos auditor) must see
// every record and disable themselves on filtered logs.
func (l *Log) Filtered() bool { return l != nil && l.filterOn }

// Observe registers fn to receive every retained record as it is recorded.
// Observers run synchronously in recording order, after the category filter
// and before retention trimming — a consumer sees each record exactly once
// even when the ring later drops it. Continuous checkers (the chaos
// auditor, the fingerprinter, the latency deriver) hang off this hook.
func (l *Log) Observe(fn func(Record)) {
	if l == nil {
		return
	}
	l.observers = append(l.observers, fn)
}

// Emit records a typed event. Safe on a nil log. The record travels and is
// retained by value; with a bounded log this path performs zero heap
// allocations, observers included (asserted by TestEmitAllocationFree).
func (l *Log) Emit(r Record) {
	if l == nil {
		return
	}
	if l.filterOn && !l.keeps(r) {
		return
	}
	l.emit(r)
}

// emit is Emit past the filter: observers, live mirror, retention.
func (l *Log) emit(r Record) {
	for _, fn := range l.observers {
		fn(r)
	}
	if l.Live != nil {
		fmt.Fprintln(l.Live, r)
	}
	if l.noRetain {
		return
	}
	if l.Max > 0 && len(l.list) >= l.Max {
		// Drop the oldest half rather than shifting one-by-one.
		n := copy(l.list, l.list[len(l.list)/2:])
		l.lost += uint64(len(l.list) - n)
		l.list = l.list[:n]
	}
	l.list = append(l.list, r)
}

// Entries returns the retained records in order.
func (l *Log) Entries() []Record {
	if l == nil {
		return nil
	}
	return l.list
}

// Lost reports how many records were dropped to the retention bound.
func (l *Log) Lost() uint64 {
	if l == nil {
		return 0
	}
	return l.lost
}

// Dump writes all retained records to w.
func (l *Log) Dump(w io.Writer) {
	for _, r := range l.Entries() {
		fmt.Fprintln(w, r)
	}
}
