package sim

import (
	"math/rand"
	"testing"
)

// oracleQueue is the reference model the timing wheel is tested against: the
// indexed binary heap that used to be the engine's entire event queue, holding
// bare records ordered by the same (time, seq) rule. Whatever program the
// engine runs, the oracle runs too, and every observable — fire order, fire
// times, Pending — must match exactly.
type oracleQueue struct {
	heap eventHeap
	live map[uint64]*Event // seq -> record still queued
}

func newOracle() *oracleQueue {
	return &oracleQueue{live: make(map[uint64]*Event)}
}

func (o *oracleQueue) schedule(t Time, seq uint64) {
	rec := &Event{t: t, seq: seq}
	o.heap.push(rec)
	o.live[seq] = rec
}

// cancel mirrors a successful Handle.Cancel. The caller only invokes it when
// the engine reported the cancel landed, so the record must still be queued.
func (o *oracleQueue) cancel(seq uint64) bool {
	rec, ok := o.live[seq]
	if !ok {
		return false
	}
	o.heap.remove(rec)
	delete(o.live, seq)
	return true
}

func (o *oracleQueue) pop() *Event {
	rec := o.heap.pop()
	delete(o.live, rec.seq)
	return rec
}

func (o *oracleQueue) pending() int { return len(o.heap) }

// wheelVsOracle drives the engine and the heap oracle in lockstep through one
// schedule/cancel/step program and fails the test on the first divergence:
// a fired event whose (time, seq) is not the oracle's minimum, or a Pending
// count that disagrees after any operation.
//
// Durations span three regimes on purpose: sub-tick (many events per L0
// slot), mid-range (L0/L1 cascades), and far-future jumps past the wheel
// horizon (~67ms) that exercise the overflow heap and the window advance —
// including the behind-window path where a schedule lands below a window
// that already jumped ahead over idle time.
func wheelVsOracle(t *testing.T, next func() (op byte, arg int)) {
	t.Helper()
	e := NewEngine()
	defer e.Close()
	o := newOracle()

	type firing struct {
		t   Time
		seq uint64
	}
	var fired []firing
	var handles []Handle
	var seqs []uint64 // seqs[i] is the engine seq of handles[i]
	var seq uint64    // mirrors the engine's scheduling counter

	// delay maps an op argument onto the three regimes.
	delay := func(arg int) Duration {
		switch arg % 8 {
		case 0, 1, 2, 3: // sub-tick to a few ticks
			return Duration(arg % 3000)
		case 4, 5: // within the L0/L1 window
			return Duration(arg%500) * Microsecond
		case 6: // around and beyond the L1 horizon
			return Duration(arg%100) * Millisecond
		default: // far overflow
			return Duration(arg%4) * Second
		}
	}

	check := func() {
		if got, want := e.Pending(), o.pending(); got != want {
			t.Fatalf("Pending() = %d, oracle has %d live events", got, want)
		}
	}

	for i := 0; i < 4096; i++ {
		op, arg := next()
		if op == 0xff {
			break
		}
		switch op % 4 {
		case 0, 1: // schedule (After covers At: both land at Now+delta)
			id := seq
			seq++
			h := e.After(delay(arg), "oracle-fuzz", func() {
				fired = append(fired, firing{e.Now(), id})
			})
			handles = append(handles, h)
			seqs = append(seqs, id)
			o.schedule(h.Time(), id)
		case 2: // cancel an arbitrary, possibly stale, handle
			if len(handles) == 0 {
				continue
			}
			j := arg % len(handles)
			got := handles[j].Cancel()
			want := o.cancel(seqs[j])
			if got != want {
				t.Fatalf("Cancel(handle %d) = %v, oracle says %v", j, got, want)
			}
		case 3: // step: engine fires its minimum, oracle must agree
			if o.pending() == 0 {
				if e.Step() {
					t.Fatal("Step() fired an event the oracle does not have")
				}
				continue
			}
			want := o.pop()
			before := len(fired)
			if !e.Step() {
				t.Fatalf("Step() fired nothing; oracle expects (t=%d, seq=%d)", want.t, want.seq)
			}
			if len(fired) != before+1 {
				t.Fatalf("Step() fired %d events, want 1", len(fired)-before)
			}
			got := fired[len(fired)-1]
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("Step() fired (t=%d, seq=%d), oracle expects (t=%d, seq=%d)",
					got.t, got.seq, want.t, want.seq)
			}
		}
		check()
	}

	// Drain: every remaining event must come out in the oracle's order.
	for o.pending() > 0 {
		want := o.pop()
		if !e.Step() {
			t.Fatalf("drain: Step() fired nothing; oracle expects (t=%d, seq=%d)", want.t, want.seq)
		}
		got := fired[len(fired)-1]
		if got.t != want.t || got.seq != want.seq {
			t.Fatalf("drain: fired (t=%d, seq=%d), oracle expects (t=%d, seq=%d)",
				got.t, got.seq, want.t, want.seq)
		}
		check()
	}
	if e.Step() {
		t.Fatal("engine fired an event after the oracle drained")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after full drain, want 0", e.Pending())
	}
}

// TestWheelMatchesHeapOracle is the deterministic property test: long random
// programs over several seeds, biased toward schedules so the queue grows
// deep enough to cascade through both wheel levels and the overflow heap.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1991} {
		rng := rand.New(rand.NewSource(seed))
		n := 0
		wheelVsOracle(t, func() (byte, int) {
			n++
			if n > 3000 {
				return 0xff, 0
			}
			// 2:1:1 schedule : cancel : step keeps a deep queue.
			op := []byte{0, 1, 2, 3}[rng.Intn(4)]
			return op, rng.Intn(1 << 20)
		})
	}
}

// TestWheelOracleIdleJump pins the behind-window regression case explicitly:
// fire a far-future event so the wheel window jumps over a long idle gap,
// then schedule short-delay events that land behind or near the new window
// base and interleave them with cancels.
func TestWheelOracleIdleJump(t *testing.T) {
	script := []struct {
		op  byte
		arg int
	}{
		{0, 7},    // far overflow (seconds out)
		{3, 0},    // fire it: now and the window jump far ahead
		{0, 0},    // sub-tick events right at the new now
		{0, 1},    //
		{0, 14},   // a few hundred µs out (back in the wheel)
		{2, 2},    // cancel one of them
		{3, 0},    // fire
		{0, 6},    // tens of ms (L1)
		{0, 15},   // seconds again
		{3, 0},    // fire through the L1 cascade
		{3, 0},    //
		{2, 0},    // stale cancel (already fired)
		{0xff, 0}, // drain the rest in wheelVsOracle's tail loop
	}
	i := 0
	wheelVsOracle(t, func() (byte, int) {
		if i >= len(script) {
			return 0xff, 0
		}
		s := script[i]
		i++
		return s.op, s.arg
	})
}

// FuzzWheelVsHeapOracle lets the fuzzer search for any schedule/cancel/step
// interleaving where the timing wheel diverges from the heap it replaced.
func FuzzWheelVsHeapOracle(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 3, 0, 2, 0, 1, 255, 3, 0})
	f.Add([]byte{0, 7, 3, 0, 0, 0, 0, 1, 2, 2, 3, 0})
	f.Add([]byte{0, 6, 0, 6, 0, 6, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		pc := 0
		wheelVsOracle(t, func() (byte, int) {
			if pc+1 >= len(program) {
				return 0xff, 0
			}
			op, arg := program[pc], program[pc+1]
			pc += 2
			// Stretch the one-byte arg so all three delay regimes and deep
			// handle indices stay reachable from fuzzer inputs.
			return op, int(arg) * 4111
		})
	})
}
