package exp

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"schedact/internal/apps/micro"
)

// TestGoldenTracesPar regenerates every committed golden trace — the
// Table 1/4 microbenchmarks and the Figure 1 smoke runs — all at once, each
// on its own engine in its own goroutine, and diffs them against the same
// files TestGoldenTraces pins. Running independent simulations side by side
// is how the fleet gets its speed, so no engine, kernel, or trace may share
// mutable state with another run: any leak shows up here as a byte
// difference (or, under -race, as a data race). No -update mode: concurrent
// runs have no traces of their own to bless.
func TestGoldenTracesPar(t *testing.T) {
	cases := []struct {
		name string
		gen  func() string
	}{
		{"table1_fastthreads_kt", func() string { return goldenMicro(micro.FastThreadsKT) }},
		{"table1_topaz_threads", func() string { return goldenMicro(micro.TopazThreads) }},
		{"table1_ultrix_processes", func() string { return goldenMicro(micro.UltrixProcesses) }},
		{"table4_fastthreads_sa", func() string { return goldenMicro(micro.FastThreadsSA) }},
		{"figure1_topaz", func() string { return goldenFigure1(SysTopaz) }},
		{"figure1_orig_fastthreads", func() string { return goldenFigure1(SysOrigFT) }},
		{"figure1_new_fastthreads", func() string { return goldenFigure1(SysNewFT) }},
	}
	got := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, gen func() string) {
			defer wg.Done()
			got[i] = gen()
		}(i, tc.gen)
	}
	wg.Wait()
	for i, tc := range cases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.name+".trace")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (create with TestGoldenTraces -update): %v", path, err)
			}
			if got[i] != string(want) {
				diffTraces(t, path+" (concurrent run)", string(want), got[i])
			}
		})
	}
}
