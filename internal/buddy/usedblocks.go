package buddy

import (
	"fmt"

	"hyperalloc/internal/mem"
)

// BlockUsed reports whether pfn is still the head of a live allocation of
// exactly the given order (evacuation re-checks blocks before migrating:
// reclaim triggered by the migration itself may have freed them).
func (a *Alloc) BlockUsed(pfn mem.PFN, order mem.Order) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := uint64(pfn)
	if p >= a.frames || uint(order) > maxOrder {
		return false
	}
	return a.hdr[p] == hdrUsed|uint8(order)
}

// UsedBlocksIn returns the allocated blocks inside one 2 MiB area, as
// virtio-mem's unplug path needs them for migration. It requires the
// per-CPU caches to be drained (cached pages are indistinguishable from
// block interiors) and no allocations larger than a pageblock (the guests
// simulated here never exceed order 9).
func (a *Alloc) UsedBlocksIn(area uint64) ([]FreeBlock, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if area >= a.areas {
		return nil, fmt.Errorf("%w: area %d out of range", ErrBadState, area)
	}
	start := area * mem.FramesPerHuge
	end := start + mem.FramesPerHuge
	if end > a.frames {
		end = a.frames
	}
	if err := a.splitCovering(start); err != nil {
		return nil, err
	}
	var blocks []FreeBlock
	pfn := start
	for pfn < end {
		h := a.hdr[pfn]
		switch {
		case h&hdrFree != 0:
			pfn += 1 << (h & hdrOrder)
		case h&hdrUsed != 0:
			order := mem.Order(h & hdrOrder)
			if order > mem.HugeOrder {
				return nil, fmt.Errorf("%w: order-%d allocation crosses area %d", ErrBadState, order, area)
			}
			blocks = append(blocks, FreeBlock{PFN: mem.PFN(pfn), Order: order})
			pfn += order.Frames()
		default:
			return nil, fmt.Errorf("%w: frame %d unaccounted (per-CPU cached?)", ErrBadState, pfn)
		}
	}
	return blocks, nil
}
