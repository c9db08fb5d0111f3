package trace

import (
	"testing"

	"schedact/internal/sim"
)

// BenchmarkTraceEmit measures the typed emit path in its always-on audit
// configuration: bounded log, one observer attached (the shape of the chaos
// auditor). The acceptance bar is 0 allocs/op; the test suite enforces it
// via TestEmitAllocationFree, this benchmark quantifies the ns/op win.
func BenchmarkTraceEmit(b *testing.B) {
	l := New(4096)
	var blocks int
	l.Observe(func(r Record) {
		if r.Kind == KindActBlock {
			blocks++
		}
	})
	name := "matrix"
	reason := "io-blocked"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit(Record{T: sim.Time(i), CPU: 1, Kind: KindActBlock, Name: name, A: int64(i), Aux: reason})
	}
	if blocks != b.N {
		b.Fatalf("observer saw %d of %d records", blocks, b.N)
	}
}
