package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// parVsSeq interprets one coroutine program on a single engine, then on
// width independent engines driven concurrently from separate goroutines —
// alternately unpooled and pooled (each pool owned by its goroutine, as the
// Pool contract requires), with elision on and off — and fails on any
// observable difference: event log, final clock, or any simulated stat.
// Engines share no state, so running simulations side by side, as a fleet
// does, must leave every run byte-identical to a solo one; under -race this
// also proves the coroutine hand-off never touches another engine's data.
func parVsSeq(t *testing.T, program []byte, width int) {
	t.Helper()
	ref := interpret(program, nil, false)
	got := make([]runObs, width)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pool *Pool
			if i%2 == 1 {
				pool = NewPool()
				defer pool.Close()
			}
			got[i] = interpret(program, pool, i%4 >= 2)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if diff := ref.same(g); diff != "" {
			t.Fatalf("concurrent run %d of %d (pooled=%v elision=%v) diverged from the solo run: %s",
				i, width, i%2 == 1, i%4 < 2, diff)
		}
	}
}

// TestParVsSeqPrograms is the deterministic slice of the concurrent-vs-solo
// oracle: random coroutine programs at several fan-out widths, the
// side-by-side analogue of TestPooledLockstepMatchesUnpooled.
func TestParVsSeqPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		program := make([]byte, 4+rng.Intn(60))
		rng.Read(program)
		width := 2 + int(seed)%5
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			parVsSeq(t, program, width)
		})
	}
}

// FuzzParVsSeqOracle lets the fuzzer search coroutine programs and fan-out
// widths for any run whose outcome depends on what other engines are doing
// on other goroutines at the same time.
func FuzzParVsSeqOracle(f *testing.F) {
	f.Add([]byte{2, 0, 16, 3, 40, 5, 1, 1, 6, 2, 80, 7, 33}, uint8(1))
	f.Add([]byte{0, 9, 9, 9}, uint8(2))
	f.Add([]byte{3, 5, 0, 0, 5, 18, 18, 26, 42}, uint8(7))
	f.Add([]byte{1, 255, 255, 7, 7, 7, 2, 2, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, program []byte, widthB uint8) {
		if len(program) > 256 {
			program = program[:256]
		}
		parVsSeq(t, program, 2+int(widthB)%6)
	})
}
