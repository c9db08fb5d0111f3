package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"schedact/internal/sim"
	"schedact/internal/stats"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit(Record{Kind: KindMsg, Name: "cat", Aux: "message 1"}) // must not panic
	l.Emit(Record{Kind: KindDispatch, Name: "t"})
	l.Observe(func(Record) {})
	if l.Entries() != nil {
		t.Fatal("nil log should have no entries")
	}
	if l.Lost() != 0 {
		t.Fatal("nil log should report zero lost")
	}
	if l.Filtered() {
		t.Fatal("nil log should not report a filter")
	}
}

func TestAddAndDump(t *testing.T) {
	l := New(0)
	l.Emit(Record{T: sim.Time(1500 * sim.Microsecond), CPU: 2, Kind: KindMsg, Name: "dispatch", Aux: "thread a"})
	l.Emit(Record{T: sim.Time(2 * sim.Millisecond), CPU: -1, Kind: KindMsg, Name: "note", Aux: "no cpu"})
	if len(l.Entries()) != 2 {
		t.Fatalf("entries = %d, want 2", len(l.Entries()))
	}
	var b strings.Builder
	l.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "cpu2") || !strings.Contains(out, "dispatch") || !strings.Contains(out, "thread a") {
		t.Fatalf("dump missing fields:\n%s", out)
	}
	if !strings.Contains(out, "  -") {
		t.Fatalf("dump should render missing CPU as '-':\n%s", out)
	}
}

func TestRetentionBoundDropsOldest(t *testing.T) {
	l := New(10)
	for i := 0; i < 25; i++ {
		l.Emit(Record{T: sim.Time(i), Kind: KindULReady, Name: "t", A: int64(i)})
	}
	if len(l.Entries()) > 10 {
		t.Fatalf("retained %d entries, bound is 10", len(l.Entries()))
	}
	if l.Lost() == 0 {
		t.Fatal("expected dropped entries to be counted")
	}
	// The newest entry must survive.
	last := l.Entries()[len(l.Entries())-1]
	if last.A != 24 {
		t.Fatalf("newest entry lost: %v", last)
	}
}

func TestFilterKeepsOnlySelected(t *testing.T) {
	l := New(0).Filter("upcall")
	l.Emit(Record{Kind: KindUpcall, Name: "s", B: 0})
	l.Emit(Record{Kind: KindDispatch, Name: "t"})
	l.Emit(Record{Kind: KindMsg, Name: "drop", Aux: "no"})
	if n := len(l.Entries()); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
	if l.Entries()[0].Kind != KindUpcall {
		t.Fatal("wrong entry retained")
	}
	if !l.Filtered() {
		t.Fatal("Filtered() should report the installed filter")
	}
}

// TestFilterBitmaskMatchesCategories: the compiled Kind bitmask must agree
// with the constant category table for every typed kind, and multi-category
// filters union their masks. KindMsg records (dynamic category) still
// filter by name.
func TestFilterBitmaskMatchesCategories(t *testing.T) {
	l := New(0).Filter("chaos", "upcall")
	for k := Kind(0); k < kindCount; k++ {
		if k == KindMsg {
			continue
		}
		want := kindCats[k] == "chaos" || kindCats[k] == "upcall"
		if got := l.keeps(Record{Kind: k}); got != want {
			t.Errorf("kind %d (cat %q): keeps=%v want %v", k, kindCats[k], got, want)
		}
	}
	// Dynamic KindMsg categories filter by Name, independent of the mask.
	if !l.keeps(Record{Kind: KindMsg, Name: "chaos"}) || l.keeps(Record{Kind: KindMsg, Name: "dispatch"}) {
		t.Fatal("KindMsg records must filter by their dynamic category")
	}
	// All four chaos kinds land, nothing else does.
	l.Emit(Record{Kind: KindChaosPreempt, A: 1})
	l.Emit(Record{Kind: KindChaosRebalance})
	l.Emit(Record{Kind: KindDispatch, Name: "t"})
	l.Emit(Record{Kind: KindMsg, Name: "note", Aux: "dropped before rendering"})
	l.Emit(Record{Kind: KindMsg, Name: "upcall", Aux: "kept"})
	if n := len(l.Entries()); n != 3 {
		t.Fatalf("entries = %d, want 3 (2 chaos + 1 upcall msg)", n)
	}
}

// TestStreamRetainsNothing pins the observer-only retention mode the chaos
// sweep runs under: every record reaches observers (and Live) exactly once,
// nothing is retained, nothing counts as lost, and Reset preserves the mode
// and the observer chain for warm reuse.
func TestStreamRetainsNothing(t *testing.T) {
	l := NewStream()
	var seen []int64
	l.Observe(func(r Record) { seen = append(seen, r.A) })
	var live strings.Builder
	l.Live = &live
	for i := 0; i < 100; i++ {
		l.Emit(Record{Kind: KindULReady, Name: "t", A: int64(i)})
	}
	if len(seen) != 100 {
		t.Fatalf("observer saw %d records, want 100", len(seen))
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("observer order broken at %d: got %d", i, v)
		}
	}
	if len(l.Entries()) != 0 {
		t.Fatalf("stream log retained %d entries", len(l.Entries()))
	}
	if l.Lost() != 0 {
		t.Fatalf("stream log counted %d lost — nothing retained means nothing dropped", l.Lost())
	}
	if live.Len() == 0 {
		t.Fatal("live mirror missed the stream")
	}
	// Reset keeps the mode and observers (warm contexts recycle the log).
	l.Reset()
	l.Emit(Record{Kind: KindULReady, Name: "t", A: 7})
	if len(seen) != 101 {
		t.Fatal("observer chain lost across Reset")
	}
	if len(l.Entries()) != 0 {
		t.Fatal("Reset dropped the no-retention mode")
	}
}

// TestStreamEmitAllocationFree extends the zero-allocation guarantee to the
// stream mode — it skips the ring entirely, so it must allocate nothing
// from the first record on (no warm-up append growth).
func TestStreamEmitAllocationFree(t *testing.T) {
	l := NewStream()
	var count int
	l.Observe(func(r Record) { count++ })
	name := "matrix"
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		l.Emit(Record{T: sim.Time(i), CPU: 1, Kind: KindActBlock, Name: name, A: i, Aux: "io-blocked"})
		i++
	})
	if avg != 0 {
		t.Fatalf("stream Emit allocates %.1f allocs/op, want 0", avg)
	}
	if count == 0 {
		t.Fatal("observer never ran")
	}
}

func TestLiveWriter(t *testing.T) {
	var b strings.Builder
	l := New(0)
	l.Live = &b
	l.Emit(Record{T: sim.Time(sim.Millisecond), CPU: 3, Kind: KindUpcall, Name: "x", A: 1})
	if !strings.Contains(b.String(), "upcall") {
		t.Fatalf("live writer missed entry: %q", b.String())
	}
}

func TestObserverSeesEveryRecordOnce(t *testing.T) {
	l := New(4)
	var seen []int64
	l.Observe(func(r Record) { seen = append(seen, r.A) })
	for i := 0; i < 10; i++ {
		l.Emit(Record{Kind: KindULReady, Name: "t", A: int64(i)})
	}
	if len(seen) != 10 {
		t.Fatalf("observer saw %d records, want 10 (ring trimming must not re-deliver)", len(seen))
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("observer order broken at %d: got %d", i, v)
		}
	}
}

// TestRendererEquivalence pins each typed renderer to the exact strings the
// old fmt.Sprintf emit sites produced, so the typed refactor provably tells
// the same schedule story (the golden traces in internal/exp depend on this
// byte-for-byte).
func TestRendererEquivalence(t *testing.T) {
	c, d := PackEvRefs([4]EvRef{MakeEvRef(UpAddProcessor, -1), MakeEvRef(UpPreempted, 5)})
	cases := []struct {
		r        Record
		cat, msg string
	}{
		{Record{Kind: KindUpcall, Name: "matrix", A: 3, B: 2, C: c, D: d}, "upcall", "matrix act3 [AddProcessor Preempted(act5)]"},
		{Record{Kind: KindStillborn, Name: "matrix", A: 7, B: 2}, "stillborn", "matrix act7, 2 events requeued"},
		{Record{Kind: KindTake, Name: "matrix"}, "take", "from matrix"},
		{Record{Kind: KindInterrupt, Name: "matrix"}, "interrupt", "matrix"},
		{Record{Kind: KindInterruptStale, Name: "matrix"}, "interrupt", "matrix: stale request rejected"},
		{Record{Kind: KindYield, Name: "matrix", A: 2}, "yield", "matrix act2"},
		{Record{Kind: KindNotifyDelayed, Name: "matrix", A: 3}, "notify", "matrix: 3 events delayed (no processors)"},
		{Record{Kind: KindUnblockDelayed, Name: "matrix", A: 4}, "notify", "matrix: unblock act4 delayed (no processors)"},
		{Record{Kind: KindActBlock, Name: "matrix", A: 1, Aux: "io-blocked"}, "block", "matrix act1: io-blocked"},
		{Record{Kind: KindActUnblock, Name: "matrix", A: 1}, "unblock", "matrix act1"},
		{Record{Kind: KindAddMore, Name: "matrix", A: 2, B: 4}, "downcall", "matrix: add 2 more (want=4)"},
		{Record{Kind: KindIdleDowncall, Name: "matrix", A: 1}, "downcall", "matrix: processor idle (want=1)"},
		{Record{Kind: KindFault, Name: "matrix", A: 5, B: 17}, "fault", "matrix act5 page 17"},
		{Record{Kind: KindFaultDelayed, Name: "matrix", A: 9}, "fault", "matrix: upcall delayed, entry page 9 mid-fetch"},
		{Record{Kind: KindDebugStop, Name: "matrix", A: 6}, "debug", "stop matrix act6 (no upcall)"},
		{Record{Kind: KindDebugResume, Name: "matrix", A: 6}, "debug", "resume matrix act6 (direct)"},
		{Record{Kind: KindDispatch, Name: "worker-1"}, "dispatch", "worker-1"},
		{Record{Kind: KindPreempt, Name: "worker-1"}, "preempt", "worker-1"},
		{Record{Kind: KindExit, Name: "worker-1"}, "exit", "worker-1"},
		{Record{Kind: KindKTBlock, Name: "worker-1", Aux: "disk"}, "block", "worker-1: disk"},
		{Record{Kind: KindULDispatch, Name: "w3"}, "uldispatch", "w3"},
		{Record{Kind: KindULReady, Name: "w3"}, "ulready", "w3"},
		{Record{Kind: KindULBlock, Name: "w3", Aux: "join"}, "ulblock", "w3: join"},
		{Record{Kind: KindULExit, Name: "w3"}, "ulexit", "w3"},
		{Record{Kind: KindULIdle, A: 2}, "ulidle", "vp2 parked"},
		{Record{Kind: KindIO, A: 12, B: int64(3 * sim.Millisecond)}, "io", "disk request #12 (3ms)"},
		{Record{Kind: KindChaosPreempt, A: 1}, "chaos", "storm preempt cpu1"},
		{Record{Kind: KindChaosRebalance}, "chaos", "forced rebalance"},
		{Record{Kind: KindChaosEvict, A: 40}, "chaos", "evict page 40"},
		{Record{Kind: KindChaosPulse, A: 3}, "chaos", "interloper demand 3"},
		{Record{Kind: KindMsg, Name: "legacy", Aux: "already rendered"}, "legacy", "already rendered"},
	}
	for _, tc := range cases {
		if got := tc.r.Cat(); got != tc.cat {
			t.Errorf("kind %d: Cat() = %q, want %q", tc.r.Kind, got, tc.cat)
		}
		if got := tc.r.Msg(); got != tc.msg {
			t.Errorf("kind %d: Msg() = %q, want %q", tc.r.Kind, got, tc.msg)
		}
	}
}

func TestEvRefPacking(t *testing.T) {
	refs := [4]EvRef{
		MakeEvRef(UpAddProcessor, -1),
		MakeEvRef(UpPreempted, 5),
		MakeEvRef(UpBlocked, 0),
		MakeEvRef(UpUnblocked, 1<<27-2), // near the id mask limit
	}
	c, d := PackEvRefs(refs)
	r := Record{Kind: KindUpcall, B: 4, C: c, D: d}
	for i, want := range refs {
		got, ok := r.EvRef(i)
		if !ok || got != want {
			t.Fatalf("slot %d: got %v ok=%v, want %v", i, got, ok, want)
		}
	}
	// Count bounds the visible slots.
	r.B = 2
	if _, ok := r.EvRef(2); ok {
		t.Fatal("slot 2 should be invisible with count 2")
	}
	// Kinds and activation ids round-trip.
	if refs[0].Kind() != UpAddProcessor {
		t.Fatal("kind round trip failed")
	}
	if _, ok := refs[0].Act(); ok {
		t.Fatal("AddProcessor carries no activation")
	}
	if id, ok := refs[1].Act(); !ok || id != 5 {
		t.Fatalf("act round trip: got %d ok=%v", id, ok)
	}
	// The zero EvRef is distinguishable from AddProcessor-without-act.
	if refs[0] == 0 {
		t.Fatal("AddProcessor ref must not collide with the empty slot")
	}
	// Overflow rendering.
	if got := renderEvRefs(6, c, d); !strings.Contains(got, "+2 more") {
		t.Fatalf("overflow render = %q", got)
	}
}

// TestEmitAllocationFree is the tentpole's core guarantee: emitting a typed
// record into a bounded log — with an observer attached, as the chaos
// auditor always is — performs zero heap allocations.
func TestEmitAllocationFree(t *testing.T) {
	l := New(1024)
	var blocks int
	l.Observe(func(r Record) {
		if r.Kind == KindActBlock {
			blocks++
		}
	})
	name := "matrix"
	reason := "io-blocked"
	// Warm the ring past its first trim so steady state is measured.
	for i := 0; i < 2048; i++ {
		l.Emit(Record{T: sim.Time(i), CPU: 1, Kind: KindActBlock, Name: name, A: int64(i), Aux: reason})
	}
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		l.Emit(Record{T: sim.Time(i), CPU: 1, Kind: KindActBlock, Name: name, A: i, Aux: reason})
		i++
	})
	if avg != 0 {
		t.Fatalf("Emit allocates %.1f allocs/op on the steady-state path, want 0", avg)
	}
	if blocks == 0 {
		t.Fatal("observer never ran")
	}
}

func TestLatenciesDerivation(t *testing.T) {
	l := New(0)
	reg := stats.New()
	la := NewLatencies(l, reg)

	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	// Upcall at 1ms, dispatch at 1.5ms on the same CPU → 0.5ms dispatch latency.
	l.Emit(Record{T: ms(1), CPU: 0, Kind: KindUpcall, Name: "s", A: 1, B: 1})
	l.Emit(Record{T: sim.Time(1500 * sim.Microsecond), CPU: 0, Kind: KindULDispatch, Name: "w1"})
	// Ready at 2ms, dispatched at 5ms → 3ms ready wait.
	l.Emit(Record{T: ms(2), CPU: 0, Kind: KindULReady, Name: "w2"})
	l.Emit(Record{T: ms(5), CPU: 1, Kind: KindULDispatch, Name: "w2"})
	// Block act3 at 4ms, unblock at 10ms → 6ms block latency.
	l.Emit(Record{T: ms(4), CPU: 0, Kind: KindActBlock, Name: "s", A: 3, Aux: "io-blocked"})
	l.Emit(Record{T: ms(10), CPU: -1, Kind: KindActUnblock, Name: "s", A: 3})

	if la.UpcallDispatch.N != 1 || la.UpcallDispatch.SumNs != int64(500*sim.Microsecond) {
		t.Fatalf("upcall dispatch: n=%d sum=%d", la.UpcallDispatch.N, la.UpcallDispatch.SumNs)
	}
	if la.ReadyWait.N != 1 || la.ReadyWait.SumNs != int64(3*sim.Millisecond) {
		t.Fatalf("ready wait: n=%d sum=%d", la.ReadyWait.N, la.ReadyWait.SumNs)
	}
	if la.BlockUnblock.N != 1 || la.BlockUnblock.SumNs != int64(6*sim.Millisecond) {
		t.Fatalf("block→unblock: n=%d sum=%d", la.BlockUnblock.N, la.BlockUnblock.SumNs)
	}
	// And the registry exposes them.
	if v, ok := reg.Value("latency.ready_wait.count"); !ok || v != 1 {
		t.Fatalf("registry latency.ready_wait.count = %d ok=%v", v, ok)
	}
	if v, ok := reg.Value("latency.block_unblock.mean_ns"); !ok || v != uint64(6*sim.Millisecond) {
		t.Fatalf("registry latency.block_unblock.mean_ns = %d ok=%v", v, ok)
	}
}

func TestWriteChromeProducesLoadableJSON(t *testing.T) {
	l := New(0)
	ms := func(n int64) sim.Time { return sim.Time(n * int64(sim.Millisecond)) }
	l.Emit(Record{T: ms(1), CPU: 0, Kind: KindDispatch, Name: "sa:matrix"})
	l.Emit(Record{T: ms(2), CPU: 0, Kind: KindULDispatch, Name: "w1"})
	l.Emit(Record{T: ms(3), CPU: 0, Kind: KindULBlock, Name: "w1", Aux: "io"})
	l.Emit(Record{T: ms(3), CPU: -1, Kind: KindActUnblock, Name: "matrix", A: 1})
	l.Emit(Record{T: ms(4), CPU: 1, Kind: KindULDispatch, Name: "w2"})

	var b bytes.Buffer
	if err := WriteChrome(&b, l.Entries(), sim.Time(5*sim.Millisecond).Us()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	var slices, instants, meta int
	var w1Dur float64
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Name == "w1" {
				w1Dur = ev.Dur
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	// cpu0, cpu1, kernel tracks named; 3 dispatch slices; 2 instants.
	if meta != 3 {
		t.Fatalf("thread_name metadata = %d, want 3", meta)
	}
	if slices != 3 || instants != 2 {
		t.Fatalf("slices=%d instants=%d, want 3/2", slices, instants)
	}
	// w1's slice runs 2ms→3ms = 1000µs, closed by its block.
	if w1Dur != 1000 {
		t.Fatalf("w1 slice dur = %v µs, want 1000", w1Dur)
	}
}
