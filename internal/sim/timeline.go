package sim

// timeline is SeqEngine's event queue: the two-level timing wheel plus the
// sorted overflow heap, behind one enqueue/dequeue/peek surface that hides
// the merge and yields the exact (time, seq) order the engine contract
// requires. It is confined to the driving goroutine and performs no
// synchronization of its own.
type timeline struct {
	wh  wheel
	pq  eventHeap // sorted overflow: beyond the wheel horizon, or behind the window
	ovf *uint64   // bumped when a schedule lands in the overflow heap
}

// reset empties the timeline and points its overflow counter at ovf.
func (q *timeline) reset(ovf *uint64) {
	q.wh.reset()
	q.pq = nil
	q.ovf = ovf
}

// count reports the number of queued events.
func (q *timeline) count() int { return q.wh.count + len(q.pq) }

// enqueue files a filled-in event record into the queue: level 0 for the
// current chunk, level 1 within the horizon, the sorted heap past it (or
// behind the window, after an idle jump).
func (q *timeline) enqueue(ev *Event) {
	tk := tickOf(ev.t)
	ch := tk >> l0Bits
	switch {
	case ch == q.wh.curChunk:
		q.wh.pushL0(ev, tk)
	case ch > q.wh.curChunk && ch <= q.wh.curChunk+l1Slots:
		q.wh.pushL1(ev, ch)
	default:
		ev.loc = locHeap
		q.pq.push(ev)
		*q.ovf++
	}
}

// dequeue removes a queued event from whichever structure holds it.
func (q *timeline) dequeue(ev *Event) {
	if ev.loc == locHeap {
		q.pq.remove(ev)
	} else {
		q.wh.remove(ev)
	}
	ev.loc = locNone
}

// advanceTo moves the level-0 window to chunk ch (strictly forward),
// cascading that chunk's level-1 slot into level 0 and pulling overflow
// events that now fall inside the wheel's extended horizon.
//
// The cascade and the overflow pull re-file events whose chunk is inside the
// new window by construction, so *ovf never moves here: overflow is counted
// exactly once, at the original enqueue.
func (q *timeline) advanceTo(ch int64) {
	w := &q.wh
	w.curChunk = ch
	w.scanTick = ch << l0Bits
	w.sorted = -1
	s := int(ch & l1Mask)
	if w.occ1.has(s) {
		lst := w.l1[s]
		w.l1[s] = slotList{}
		w.occ1.clear(s)
		for ev := lst.head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			w.count-- // enqueue re-counts it
			q.enqueue(ev)
			ev = next
		}
	}
	base := ch << l0Bits
	horizon := w.horizonTick()
	for len(q.pq) > 0 {
		tk := tickOf(q.pq[0].t)
		if tk < base || tk >= horizon {
			// Behind the window the heap top stays put: peek serves it
			// directly, and everything deeper is later still.
			break
		}
		q.enqueue(q.pq.pop())
	}
}

// peek positions the wheel at the earliest queued event and returns it
// without removing it, or nil when the queue is empty. The merged order
// across wheel and overflow heap is the exact (time, seq) total order.
//
// Window invariant: when peek returns event h, the wheel's curChunk is
// exactly max(curChunk-before-the-call, chunk(h.t)) — the window advances
// to the head's chunk when the head is at or past the window, and stays put
// when the head is behind it (served from the overflow heap).
func (q *timeline) peek() *Event {
	for {
		var hp *Event
		if len(q.pq) > 0 {
			hp = q.pq[0]
		}
		if q.wh.count == 0 {
			if hp == nil {
				return nil
			}
			ch := tickOf(hp.t) >> l0Bits
			if ch <= q.wh.curChunk {
				return hp
			}
			// Jump the empty wheel to the heap top's chunk and adopt what
			// fits, so the dense phase that follows schedules in O(1).
			q.advanceTo(ch)
			continue
		}
		if tk, ok := q.wh.nextL0(); ok {
			if tk != q.wh.sorted {
				q.wh.l0[tk&l0Mask].sort()
				q.wh.sorted = tk
			}
			q.wh.scanTick = tk
			wv := q.wh.l0[int(tk&l0Mask)].head
			if hp != nil && hp.before(wv) {
				return hp
			}
			return wv
		}
		// Current chunk drained: advance to the earliest of the next
		// occupied level-1 chunk and the heap top's chunk.
		target, ok := q.wh.nextL1()
		if hp != nil {
			hch := tickOf(hp.t) >> l0Bits
			if hch <= q.wh.curChunk {
				return hp
			}
			if !ok || hch < target {
				target, ok = hch, true
			}
		}
		if !ok {
			panic("sim: wheel count positive but no event found")
		}
		q.advanceTo(target)
	}
}

// popUpTo removes every event with time <= upTo in exact (time, seq) order,
// appending each to buf, and returns the extended buf.
func (q *timeline) popUpTo(upTo Time, buf []*Event) []*Event {
	for {
		ev := q.peek()
		if ev == nil || ev.t > upTo {
			return buf
		}
		q.dequeue(ev)
		buf = append(buf, ev)
	}
}

// drainAll empties the timeline in arbitrary order, appending every queued
// event to buf with its queue linkage cleared, and returns the extended buf.
// Used on Close, where only the set of events matters.
func (q *timeline) drainAll(buf []*Event) []*Event {
	for s := range q.wh.l0 {
		for ev := q.wh.l0[s].head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			ev.loc = locNone
			buf = append(buf, ev)
			ev = next
		}
	}
	for s := range q.wh.l1 {
		for ev := q.wh.l1[s].head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			ev.loc = locNone
			buf = append(buf, ev)
			ev = next
		}
	}
	for _, ev := range q.pq {
		ev.index = -1
		ev.loc = locNone
		buf = append(buf, ev)
	}
	q.wh.reset()
	q.pq = nil
	return buf
}
