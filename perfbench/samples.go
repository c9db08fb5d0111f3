package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so the tail never rests on a handful of outliers.
const minBeyond = 10

// tailPcts are the percentiles the tail is chosen from, highest first.
// The ladder stops at p90: per-seed chaos cost is heavy-tailed, and above
// p90 of a 256-seed block the value is set by which rare heavy seeds the
// block holds. Over random 256-seed blocks of a 1000-seed sample, p95's
// inter-quartile range was 18% of its median and p90's 11%.
var tailPcts = []float64{90, 75, 50}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailStat is the tail of a sample: the value at the highest ladder
// percentile with at least minBeyond samples beyond it.
type tailStat struct {
	Value  float64
	Pct    float64 // the percentile the value sits at
	N      int     // sample count
	Beyond int     // samples ranked above the value
	OK     bool    // false: no ladder percentile qualifies, Value is the max
}

// tailOf selects the tail of xs: the highest percentile p of tailPcts
// whose nearest-rank value, rank ceil(p/100·n), has at least minBeyond
// samples ranked above it. When none qualifies (fewer than 2·minBeyond
// samples) the maximum is returned with OK false.
func tailOf(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	for _, p := range tailPcts {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9991
		if rank >= 1 && n-rank >= minBeyond {
			return tailStat{Value: s[rank-1], Pct: p, N: n, Beyond: n - rank, OK: true}
		}
	}
	return tailStat{Value: s[n-1], Pct: 100, N: n}
}

// note renders the tail's percentile and counts for the report.
func (t tailStat) note() string {
	if !t.OK {
		return fmt.Sprintf("max of n=%d (too few samples for any percentile to have %d beyond it)", t.N, minBeyond)
	}
	return fmt.Sprintf("p%g of n=%d, %d samples beyond", t.Pct, t.N, t.Beyond)
}

// probe is a reading of the process's cumulative costs: wall clock, CPU
// time (user+sys, which catches GC and runtime work on other cores) and
// heap allocation. The difference of two probes is what ran between them.
type probe struct {
	t     time.Time
	cpu   time.Duration
	bytes uint64
	objs  uint64
}

// allocSamples is the runtime/metrics read buffer for takeProbe; the
// benchmark takes probes from one goroutine only.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func takeProbe() probe {
	metrics.Read(allocSamples)
	return probe{
		t:     time.Now(),
		cpu:   cpuTime(),
		bytes: allocSamples[0].Value.Uint64(),
		objs:  allocSamples[1].Value.Uint64(),
	}
}

// cost is what ran between two probes.
type cost struct {
	wall  time.Duration
	cpu   time.Duration
	bytes uint64
	objs  uint64
}

// since returns the cost from q to p.
func (p probe) since(q probe) cost {
	return cost{wall: p.t.Sub(q.t), cpu: p.cpu - q.cpu, bytes: p.bytes - q.bytes, objs: p.objs - q.objs}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
