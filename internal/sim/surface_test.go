package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRetiredStatsSinkStaysGone pins the removal of the deprecated
// process-wide stats-sink global: the identifier must not reappear anywhere
// in the package source. Stats observation goes through per-engine close
// hooks (OnClose / Hooks().OnClose) instead — attachment at construction,
// no cross-engine shared mutable state. The banned name is assembled from
// pieces so this file does not match its own gate.
func TestRetiredStatsSinkStaysGone(t *testing.T) {
	banned := "Stats" + "Sink"
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no package sources found")
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), banned) {
			t.Errorf("%s mentions retired symbol %s; use per-engine close hooks", f, banned)
		}
	}
}

// TestSimConcurrencyIsAudited gates unaudited concurrency out of the
// simulator core: the whole point of the engine contract is one
// deterministic timeline, so goroutines and channels may appear only in the
// files whose synchronization discipline is documented and race-tested —
// the coroutine hand-off and the goroutine pool. A `go` statement or channel
// make anywhere else in the package is a design violation, not a style nit.
// (make lint enforces the same rule from outside the package.)
func TestSimConcurrencyIsAudited(t *testing.T) {
	audited := map[string]bool{
		"coroutine.go": true, // strict hand-off: one runnable goroutine at a time
		"pool.go":      true, // warm goroutine pool behind the same hand-off
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || audited[f] {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		for _, pat := range []string{"go func", "go l.", "go s.", "make(chan"} {
			if strings.Contains(src, pat) {
				t.Errorf("%s contains %q: concurrency in internal/sim is restricted to the audited files", f, pat)
			}
		}
	}
}
