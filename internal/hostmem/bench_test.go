package hostmem

import "testing"

// BenchmarkSwapIn measures one evict-and-fault-back cycle per tier: a
// full pool, a neighbour's growth forcing an eviction, the neighbour
// releasing, and the victim draining its debt back in. The number is
// pure bookkeeping cost (entry updates, charge deltas, trace counters);
// simulated IO time is charged by the vmm, not here.
func BenchmarkSwapIn(b *testing.B) {
	const capacity int64 = 64 << 20
	const chunk int64 = 8 << 20
	for t := Tier(0); t < NumTiers; t++ {
		b.Run(t.String(), func(b *testing.B) {
			p := NewPool(uint64(capacity))
			p.SetDefaultTier(t)
			if _, err := p.Adjust("a", capacity); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Adjust("b", chunk); err != nil { // evicts a's chunk
					b.Fatal(err)
				}
				if _, err := p.Adjust("b", -chunk); err != nil {
					b.Fatal(err)
				}
				if _, err := p.SwapIn("a", uint64(capacity)); err != nil { // full drain
					b.Fatal(err)
				}
			}
		})
	}
}
