package llfree

import (
	"sync/atomic"
	"testing"

	"hyperalloc/internal/mem"
)

// Real-time micro-benchmarks of the allocator implementation (these
// measure this Go port, not the paper's numbers).

func BenchmarkGetPutBase(b *testing.B) {
	a, err := New(Config{Frames: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Put(0, f.PFN, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetPutHuge(b *testing.B) {
	a, err := New(Config{Frames: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Get(0, mem.HugeOrder, mem.Huge)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Put(0, f.PFN, mem.HugeOrder); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetPutBaseParallel(b *testing.B) {
	a, err := New(Config{Frames: 1 << 22, CPUs: 16})
	if err != nil {
		b.Fatal(err)
	}
	var cpu atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(cpu.Add(1))
		for pb.Next() {
			f, err := a.Get(id, 0, mem.Movable)
			if err != nil {
				b.Fatal(err)
			}
			if err := a.Put(id, f.PFN, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReclaimReturnCycle(b *testing.B) {
	a, err := New(Config{Frames: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	host := a.Share()
	areas := a.Areas()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		area := uint64(i) % areas
		if err := host.ReclaimHard(area); err != nil {
			b.Fatal(err)
		}
		if err := host.ReturnHuge(area); err != nil {
			b.Fatal(err)
		}
		host.ClearEvicted(area)
	}
}

// BenchmarkClaimBits measures the raw aligned-run scan of claimBits on a
// single area whose bit field forces a full skip scan: the early words
// carry a pattern with no aligned free run of the benchmarked order, so
// every claim walks to the last word, claims there, and releases again.
func BenchmarkClaimBits(b *testing.B) {
	patterns := []struct {
		name  string
		order uint
		fill  uint64 // words 0..6 are preset to this pattern
	}{
		{"order0-dense", 0, ^uint64(0)},               // full words; free bit in word 7
		{"order2-alternating", 2, 0xCCCCCCCCCCCCCCCC}, // 1100..: no free 4-run
		{"order4-pinned", 4, 0x8000800080008000},      // one busy bit per 16-group: no free 16-run
		{"order6-sparse", 6, 1},                       // one busy bit kills the 64-run
	}
	for _, p := range patterns {
		b.Run(p.name, func(b *testing.B) {
			a, err := New(Config{Frames: 512}) // one area
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < wordsPerArea-1; w++ {
				a.bitfield[w].Store(p.fill)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off, ok := a.claimBits(0, p.order)
				if !ok {
					b.Fatal("claimBits failed")
				}
				if !a.releaseBits(0, off, p.order) {
					b.Fatal("releaseBits failed")
				}
			}
		})
	}
}

func BenchmarkScanFreeHuge1GiB(b *testing.B) {
	a, err := New(Config{Frames: mem.GiB / mem.PageSize})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		a.ScanFreeHuge(func(uint64) bool { n++; return true })
		if n == 0 {
			b.Fatal("no candidates")
		}
	}
}
