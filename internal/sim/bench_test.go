package sim

import "testing"

// benchDelays is a fixed pseudo-random spread of delays for the queue
// benchmarks: dense (most events land within ~200µs of now, the regime the
// wheel is built for) with a far tail that exercises the overflow level.
func benchDelays() [1024]Duration {
	var d [1024]Duration
	s := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		switch {
		case i%64 == 63: // tail: beyond the ~67ms wheel horizon
			d[i] = Duration(100+s%400) * Millisecond
		default:
			d[i] = Duration(s % uint64(200*Microsecond))
		}
	}
	return d
}

// BenchmarkEventQueue compares the engine's two-level timing wheel against
// the raw indexed binary heap it replaced, on the same hold pattern: a queue
// held at constant depth, each op firing the earliest event and scheduling a
// replacement. The heap side reproduces exactly what the old engine's
// schedule/fire hot path did — free-list alloc + push, pop + recycle — so
// the comparison isolates the queue discipline.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 512
	delays := benchDelays()

	b.Run("wheel", func(b *testing.B) {
		e := NewEngine()
		defer e.Close()
		nop := func() {}
		for i := 0; i < depth; i++ {
			e.After(delays[i&1023], "bench", nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
			e.After(delays[i&1023], "bench", nop)
		}
	})

	b.Run("heap", func(b *testing.B) {
		var (
			pq   eventHeap
			free []*Event
			now  Time
			seq  uint64
		)
		push := func(d Duration) {
			var ev *Event
			if n := len(free); n > 0 {
				ev, free = free[n-1], free[:n-1]
			} else {
				ev = &Event{index: -1}
			}
			seq++
			ev.t, ev.seq = now.Add(d), seq
			pq.push(ev)
		}
		for i := 0; i < depth; i++ {
			push(delays[i&1023])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := pq.pop()
			now = ev.t
			free = append(free, ev)
			push(delays[i&1023])
		}
	})
}

// BenchmarkEventQueueCancel compares cancellation: O(1) slot-list unlink in
// the wheel versus O(log n) sift in the heap. Each op schedules an event and
// cancels it again at constant background depth.
func BenchmarkEventQueueCancel(b *testing.B) {
	const depth = 512
	delays := benchDelays()

	b.Run("wheel", func(b *testing.B) {
		e := NewEngine()
		defer e.Close()
		nop := func() {}
		for i := 0; i < depth; i++ {
			e.After(delays[i&1023], "bench", nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(delays[i&1023], "bench", nop).Cancel()
		}
	})

	b.Run("heap", func(b *testing.B) {
		var (
			pq   eventHeap
			free []*Event
			seq  uint64
		)
		push := func(d Duration) *Event {
			var ev *Event
			if n := len(free); n > 0 {
				ev, free = free[n-1], free[:n-1]
			} else {
				ev = &Event{index: -1}
			}
			seq++
			ev.t, ev.seq = Time(d), seq
			pq.push(ev)
			return ev
		}
		for i := 0; i < depth; i++ {
			push(delays[i&1023])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := push(delays[i&1023])
			pq.remove(ev)
			free = append(free, ev)
		}
	})
}

// BenchmarkHookDispatch measures the hook seam's cost on the schedule+fire
// hot path at constant queue depth. The no-hook case is the one every
// ordinary run pays — a per-position bitmask test — and must stay at 0
// allocs/op (TestHookDispatchDoesNotAllocate gates that in the tier-1 run);
// the hooked cases price one PreFire observer and a full five-position
// observer set, both dispatching through the engine's reused HookCtx.
func BenchmarkHookDispatch(b *testing.B) {
	const depth = 512
	delays := benchDelays()
	run := func(b *testing.B, install func(e Engine)) {
		e := NewEngine()
		defer e.Close()
		install(e)
		nop := func() {}
		for i := 0; i < depth; i++ {
			e.After(delays[i&1023], "bench", nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
			e.After(delays[i&1023], "bench", nop)
		}
	}
	var sink uint64
	b.Run("nohooks", func(b *testing.B) {
		run(b, func(Engine) {})
	})
	b.Run("prefire", func(b *testing.B) {
		run(b, func(e Engine) {
			e.Hooks().Register(HookPreFire, HookFunc(func(ctx *HookCtx) { sink += ctx.Seq }))
		})
	})
	b.Run("allpositions", func(b *testing.B) {
		run(b, func(e Engine) {
			for pos := HookPos(0); pos < numHookPos; pos++ {
				e.Hooks().Register(pos, HookFunc(func(ctx *HookCtx) { sink += ctx.Seq }))
			}
		})
	})
}

// BenchmarkCoroutineHandoff prices the coroutine layer's three transfers,
// each allocation-free in steady state apart from pooled-go's Coroutine
// record:
//
//   - physical: one Sleep round trip paid as two coroutine switches (the
//     body parks, the wake event dispatches it), with elision forced off;
//   - elided: the same Sleep with elision on, consumed in place;
//   - pooled-go: Engine.Go plus a run to completion on a warm Pool — one
//     re-armed host, one dispatch, one final hand-off.
func BenchmarkCoroutineHandoff(b *testing.B) {
	sleeper := func(b *testing.B, elide bool) {
		e := NewEngine(WithElision(elide))
		defer e.Close()
		c := e.Go("sleeper", func(c *Coroutine) {
			for {
				c.Sleep(Microsecond)
			}
		})
		c.Unpark()
		e.Step() // first dispatch: the body is now parked in its first Sleep
		b.ReportAllocs()
		b.ResetTimer()
		e.RunUntil(e.Now().Add(Duration(b.N) * Microsecond))
	}
	b.Run("physical", func(b *testing.B) { sleeper(b, false) })
	b.Run("elided", func(b *testing.B) { sleeper(b, true) })
	b.Run("pooled-go", func(b *testing.B) {
		pool := NewPool()
		defer pool.Close()
		e := pool.NewEngine()
		defer e.Close()
		fn := func(*Coroutine) {}
		e.Go("warm", fn).Unpark()
		e.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Go("bench", fn).Unpark()
			e.Run()
		}
	})
}
