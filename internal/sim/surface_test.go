package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// TestSimConcurrencyIsAudited gates concurrency out of the simulator core:
// the whole point of the engine contract is one deterministic timeline, and
// coroutines switch directly through iter.Pull, so no non-test file in the
// package may start a goroutine or make a channel — coroutine.go and pool.go
// included. iter.Pull itself is allowed only in those two files, whose strict
// hand-off discipline is documented and race-tested. (make lint enforces the
// same rule from outside the package.)
func TestSimConcurrencyIsAudited(t *testing.T) {
	pullAllowed := map[string]bool{
		"coroutine.go": true, // unpooled coroutines: one Pull each
		"pool.go":      true, // warm hosts: one long-lived Pull each
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement: internal/sim must not start goroutines", fset.Position(n.Pos()))
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						t.Errorf("%s: make(chan ...): internal/sim must not use channels", fset.Position(n.Pos()))
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "iter" && n.Sel.Name == "Pull" && !pullAllowed[f] {
					t.Errorf("%s: iter.Pull outside coroutine.go and pool.go", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
