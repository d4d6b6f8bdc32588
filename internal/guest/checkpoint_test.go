package guest

import (
	"testing"

	"hyperalloc/internal/mem"
)

// TestResolveBlockLLFreeWholeBlock: LLFree records no order, so a
// checkpointed block is held only if every one of its frames is
// allocated. A block whose head is allocated but whose last frame is
// free must be rejected, within one bitmap word (order 3) and across
// whole words (order 7).
func TestResolveBlockLLFreeWholeBlock(t *testing.T) {
	for _, order := range []mem.Order{0, 3, 7, mem.HugeOrder} {
		g, ad := newLLFreeGuest(t, 64*mem.MiB)
		f, err := ad.A.Get(0, order, mem.Movable)
		if err != nil {
			t.Fatal(err)
		}
		cs := ChunkState{Zone: 0, PFN: f.PFN, Order: order}
		if _, err := g.ResolveBlock(cs); err != nil {
			t.Fatalf("order %d: allocated block rejected: %v", order, err)
		}
		if order == 0 || order == mem.HugeOrder {
			continue
		}
		tail := f.PFN + mem.PFN(order.Frames()-1)
		if err := ad.A.Put(0, tail, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ResolveBlock(cs); err == nil {
			t.Fatalf("order %d: block with a free tail frame accepted", order)
		}
	}
}
