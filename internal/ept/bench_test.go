package ept

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"hyperalloc/internal/mem"
)

// Range-vs-per-frame microbenchmarks at 1, 64, and 512 pages. Each op is
// a map+unmap pair so the table returns to its start state and iterations
// measure steady-state cost. TestRangeSpeedup gates the ratio of the two.

// rangePairs runs iters map+unmap pairs of [0, n) through the range ops.
func rangePairs(tb testing.TB, t *Table, n uint64, iters int) {
	for i := 0; i < iters; i++ {
		if _, err := t.MapRange(0, n); err != nil {
			tb.Fatal(err)
		}
		if _, err := t.UnmapRange(0, n, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// perFramePairs runs the same pairs as rangePairs one frame at a time.
func perFramePairs(tb testing.TB, t *Table, n uint64, iters int) {
	for i := 0; i < iters; i++ {
		for p := uint64(0); p < n; p++ {
			if _, err := t.MapBase(mem.PFN(p)); err != nil {
				tb.Fatal(err)
			}
		}
		for p := uint64(0); p < n; p++ {
			if _, err := t.UnmapBase(mem.PFN(p)); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// speedupFloors are the minimum per-frame/range time ratios: 0.9 times
// the ratios measured when the range ops landed (0.527, 27.0 and 69.1 on
// one vCPU, go1.24.0). A per-frame loop behind MapRange/UnmapRange reads
// about 1 at 64 and 512 pages.
var speedupFloors = []struct {
	pages uint64
	floor float64
}{{1, 0.474}, {64, 24.30}, {512, 62.16}}

func BenchmarkEPTRange(b *testing.B) {
	for _, c := range speedupFloors {
		b.Run(fmt.Sprintf("pages=%d", c.pages), func(b *testing.B) {
			t := New(1 << 16)
			b.ReportAllocs()
			b.ResetTimer()
			rangePairs(b, t, c.pages, b.N)
		})
	}
}

func BenchmarkEPTPerFrame(b *testing.B) {
	for _, c := range speedupFloors {
		b.Run(fmt.Sprintf("pages=%d", c.pages), func(b *testing.B) {
			t := New(1 << 16)
			b.ReportAllocs()
			b.ResetTimer()
			perFramePairs(b, t, c.pages, b.N)
		})
	}
}

// TestRangeSpeedup gates the range ops against the per-frame loops they
// batch: per-frame time over range time must reach speedupFloors at
// every size. The two sides run in back-to-back rounds, each calibrated
// to last about speedupRound and swapping which goes first, so both
// sides of a round see the same contention; the gated ratio is the
// median over rounds. The median of paired ratios holds under load on a
// neighbouring CPU, where the ratio of each side's fastest round does
// not: one side can hit a quiet stretch the other misses.
func TestRangeSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the relative cost of the two paths")
	}
	const rounds = 100
	for _, c := range speedupFloors {
		rt, ft := New(1<<16), New(1<<16)
		sides := [2]func(iters int){
			func(iters int) { rangePairs(t, rt, c.pages, iters) },
			func(iters int) { perFramePairs(t, ft, c.pages, iters) },
		}
		iters := [2]int{calibrate(sides[0]), calibrate(sides[1])}
		ratios := make([]float64, rounds)
		for r := range ratios {
			var ns [2]float64
			for k := 0; k < 2; k++ {
				i := (r + k) % 2
				start := time.Now()
				sides[i](iters[i])
				ns[i] = float64(time.Since(start).Nanoseconds()) / float64(iters[i])
			}
			ratios[r] = ns[1] / ns[0]
		}
		sort.Float64s(ratios)
		ratio := ratios[rounds/2]
		t.Logf("pages=%d: median speedup %.2f over %d rounds (floor %.2f)", c.pages, ratio, rounds, c.floor)
		if ratio < c.floor {
			t.Errorf("pages=%d: range speedup %.3f below floor %.3f", c.pages, ratio, c.floor)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// speedupRound is the target duration of one timed round.
const speedupRound = time.Millisecond

// calibrate returns the iteration count that makes one round of side
// last about speedupRound.
func calibrate(side func(iters int)) int {
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		side(iters)
		if d := time.Since(start); d >= speedupRound/4 {
			return int(math.Ceil(float64(iters) * float64(speedupRound) / float64(d)))
		}
	}
}

// BenchmarkEPTDirtyCycle measures one dirty-tracking round: mark a
// scattered working set dirty, then harvest it (the pre-copy inner loop).
func BenchmarkEPTDirtyCycle(b *testing.B) {
	t := New(1 << 16)
	if _, err := t.MapRange(0, 1<<16); err != nil {
		b.Fatal(err)
	}
	t.StartDirtyTracking()
	t.HarvestDirty(func(mem.PFN, uint64) {}) // start clean
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := uint64(0); p < 1<<16; p += 1024 {
			t.MarkDirty(mem.PFN(p), 64)
		}
		t.HarvestDirty(func(mem.PFN, uint64) {})
	}
}
