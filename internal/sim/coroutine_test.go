package sim

import (
	"testing"
)

func TestCoroutineDoesNotStartUntilUnpark(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	started := false
	c := e.Go("c", func(*Coroutine) { started = true })
	e.RunUntil(Time(Millisecond))
	if started {
		t.Fatal("coroutine ran before Unpark")
	}
	if !c.Parked() {
		t.Fatal("unstarted coroutine should report Parked")
	}
	c.Unpark()
	e.Run()
	if !started {
		t.Fatal("coroutine did not run after Unpark")
	}
	if !c.Done() {
		t.Fatal("coroutine should be Done after body returns")
	}
}

func TestParkUnparkRoundTrip(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var trace []string
	c := e.Go("worker", func(c *Coroutine) {
		trace = append(trace, "start")
		c.Park("waiting")
		trace = append(trace, "resumed")
	})
	c.Unpark()
	e.Run()
	if len(trace) != 1 || trace[0] != "start" {
		t.Fatalf("trace = %v, want [start] while parked", trace)
	}
	if got := c.ParkReason(); got != "waiting" {
		t.Fatalf("ParkReason = %q, want %q", got, "waiting")
	}
	c.Unpark()
	e.Run()
	if len(trace) != 2 || trace[1] != "resumed" {
		t.Fatalf("trace = %v, want [start resumed]", trace)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var woke Time
	c := e.Go("sleeper", func(c *Coroutine) {
		c.Sleep(5 * Millisecond)
		woke = e.Now()
	})
	c.Unpark()
	e.Run()
	if woke != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestStrictHandoffOnlyOneRuns(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	inBody := 0
	max := 0
	for i := 0; i < 8; i++ {
		c := e.Go("c", func(c *Coroutine) {
			for j := 0; j < 5; j++ {
				inBody++
				if inBody > max {
					max = inBody
				}
				inBody--
				c.Sleep(Microsecond)
			}
		})
		c.Unpark()
	}
	e.Run()
	if max != 1 {
		t.Fatalf("max concurrent coroutine bodies = %d, want 1 (strict hand-off)", max)
	}
}

func TestCurrentTracksExecutingCoroutine(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var sawSelf, sawNilInEvent bool
	c := e.Go("c", func(c *Coroutine) {
		sawSelf = e.Current() == c
	})
	e.After(Microsecond, "ev", func() {
		sawNilInEvent = e.Current() == nil
	})
	c.Unpark()
	e.Run()
	if !sawSelf {
		t.Error("Current() inside coroutine body was not the coroutine")
	}
	if !sawNilInEvent {
		t.Error("Current() inside plain event was not nil")
	}
}

func TestDoubleUnparkPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := e.Go("c", func(c *Coroutine) { c.Park("x") })
	c.Unpark()
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpark did not panic")
		}
	}()
	c.Unpark()
}

func TestUnparkFinishedCoroutinePanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := e.Go("c", func(*Coroutine) {})
	c.Unpark()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Unpark on finished coroutine did not panic")
		}
	}()
	c.Unpark()
}

func TestParkFromOutsidePanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	c := e.Go("c", func(c *Coroutine) { c.Park("x") })
	c.Unpark()
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Park from outside the coroutine did not panic")
		}
	}()
	c.Park("bogus")
}

func TestCloseUnwindsParkedCoroutines(t *testing.T) {
	e := NewEngine()
	cleaned := false
	c := e.Go("c", func(c *Coroutine) {
		defer func() { cleaned = true }()
		c.Park("forever")
	})
	c.Unpark()
	e.Run()
	if !c.Parked() {
		t.Fatal("coroutine should be parked")
	}
	e.Close()
	if !cleaned {
		t.Fatal("Close did not unwind the parked coroutine (defer did not run)")
	}
	if !c.Done() {
		t.Fatal("killed coroutine should be Done")
	}
}

func TestCloseUnwindsNeverStartedCoroutines(t *testing.T) {
	e := NewEngine()
	c := e.Go("c", func(*Coroutine) { t.Error("body must not run") })
	e.Close()
	if !c.Done() {
		t.Fatal("never-started coroutine should be Done after Close")
	}
}

func TestUnparkAtFutureTime(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var ran Time
	c := e.Go("c", func(c *Coroutine) { ran = e.Now() })
	c.UnparkAt(Time(7 * Millisecond))
	e.Run()
	if ran != Time(7*Millisecond) {
		t.Fatalf("ran at %v, want 7ms", ran)
	}
}

func TestCoroutinePingPongDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		defer e.Close()
		var log []string
		var a, b *Coroutine
		a = e.Go("a", func(c *Coroutine) {
			for i := 0; i < 3; i++ {
				log = append(log, "a")
				b.Unpark()
				c.Park("pong")
			}
		})
		b = e.Go("b", func(c *Coroutine) {
			for i := 0; i < 3; i++ {
				c.Park("ping")
				log = append(log, "b")
				if i < 2 {
					a.Unpark()
				}
			}
		})
		b.Unpark() // b starts first and parks waiting for a
		a.Unpark()
		e.Run()
		return log
	}
	first := run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(first) != len(want) {
		t.Fatalf("log = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("ping-pong not deterministic across runs")
		}
	}
}

func TestManyCoroutinesNoLeak(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		c := e.Go("c", func(c *Coroutine) {
			c.Sleep(Duration(i%10+1) * Microsecond)
		})
		c.Unpark()
	}
	e.Run()
	e.Close()
	if n := len(e.concrete().live); n != 0 {
		t.Fatalf("%d live coroutines after Run+Close, want 0", n)
	}
}
