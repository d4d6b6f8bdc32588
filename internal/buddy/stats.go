package buddy

import (
	"fmt"

	"hyperalloc/internal/mem"
)

// FreeFrames returns the number of frames the guest can still allocate:
// core free lists plus per-CPU caches.
func (a *Alloc) FreeFrames() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.freeTotal
	for i := range a.pcps {
		for mt := 0; mt < numMT; mt++ {
			n += uint64(len(a.pcps[i].lists[mt]))
		}
	}
	return n
}

// FreeCoreFrames returns the frames in the core free lists only — what
// free-page reporting can see.
func (a *Alloc) FreeCoreFrames() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeTotal
}

// FreeHugeBlocks returns the number of 2 MiB units available as free
// blocks of order >= 9 — the supply visible to huge-page ballooning and
// order-9 free-page reporting.
func (a *Alloc) FreeHugeBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for order := pageblockOrder; order <= maxOrder; order++ {
		for mt := 0; mt < numMT; mt++ {
			n += a.freeCount[order][mt] << (order - pageblockOrder)
		}
	}
	return n
}

// FreeAreaCount returns the number of 2 MiB areas with no allocated frame
// at all (pages may still be scattered across lists and caches). This is
// the upper bound any defragmentation could reach.
func (a *Alloc) FreeAreaCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, used := range a.areaUsed {
		if used == 0 {
			n++
		}
	}
	return n
}

// UsedHugeBytes returns the bytes covered by 2 MiB areas that contain at
// least one allocated frame (the "huge" series of Fig. 8).
func (a *Alloc) UsedHugeBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, used := range a.areaUsed {
		if used > 0 {
			n++
		}
	}
	return n * mem.HugeSize
}

// UsedBaseBytes returns the bytes actually allocated (the "small" series
// of Fig. 8).
func (a *Alloc) UsedBaseBytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var frames uint64
	for _, used := range a.areaUsed {
		frames += uint64(used)
	}
	return frames * mem.PageSize
}

// FragmentationRatio returns used-huge bytes over used-base bytes.
func (a *Alloc) FragmentationRatio() float64 {
	small := a.UsedBaseBytes()
	if small == 0 {
		return 1.0
	}
	return float64(a.UsedHugeBytes()) / float64(small)
}

// Areas returns the number of 2 MiB areas.
func (a *Alloc) Areas() uint64 { return a.areas }

// Validate checks that list bookkeeping, counters, and per-area usage are
// consistent. Quiescence required.
func (a *Alloc) Validate() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var listed uint64
	for order := 0; order <= maxOrder; order++ {
		for mt := 0; mt < numLists; mt++ {
			s := a.sentinel(order, mt)
			var count uint64
			for cur := a.next[s]; uint64(cur) != s; cur = a.next[cur] {
				if a.hdr[cur]&hdrFree == 0 || int(a.hdr[cur]&hdrOrder) != order {
					return errf("block %d in list order %d has header %#x", cur, order, a.hdr[cur])
				}
				if uint64(cur)&((1<<order)-1) != 0 {
					return errf("block %d misaligned for order %d", cur, order)
				}
				count++
				listed += 1 << order
			}
			if count != a.freeCount[order][mt] {
				return errf("freeCount[%d][%d]=%d, list has %d", order, mt, a.freeCount[order][mt], count)
			}
		}
	}
	if listed != a.freeTotal+a.isolated {
		return errf("freeTotal=%d + isolated=%d, lists sum to %d", a.freeTotal, a.isolated, listed)
	}
	var pcpN uint64
	for i := range a.pcps {
		for mt := 0; mt < numMT; mt++ {
			pcpN += uint64(len(a.pcps[i].lists[mt]))
		}
	}
	var used uint64
	for _, u := range a.areaUsed {
		used += uint64(u)
	}
	if listed+pcpN+used+a.offline != a.frames {
		return errf("frames unaccounted: free %d + pcp %d + used %d + offline %d != %d",
			listed, pcpN, used, a.offline, a.frames)
	}
	// A pcp-cached frame is accounted nowhere else: its header must be
	// clear (it is neither a free-list head nor allocated) and it may sit
	// in at most one cache.
	cached := make(map[uint32]bool, pcpN)
	for i := range a.pcps {
		for mt := 0; mt < numMT; mt++ {
			for _, p := range a.pcps[i].lists[mt] {
				if uint64(p) >= a.frames {
					return errf("pcp[%d] caches out-of-range frame %d", i, p)
				}
				if a.hdr[p] != 0 {
					return errf("pcp-cached frame %d has header %#x", p, a.hdr[p])
				}
				if cached[p] {
					return errf("frame %d cached in two pcp lists", p)
				}
				cached[p] = true
			}
		}
	}
	usedByArea, headerless, err := a.walkHeaders()
	if err != nil {
		return err
	}
	for area := range a.areaUsed {
		if usedByArea[area] != a.areaUsed[area] {
			return errf("area %d: areaUsed=%d but headers account for %d", area, a.areaUsed[area], usedByArea[area])
		}
	}
	if headerless != pcpN+a.offline {
		return errf("%d header-less frames, expected pcp %d + offline %d", headerless, pcpN, a.offline)
	}
	return nil
}

// walkHeaders recomputes per-area usage from the block headers in one pass.
// Only block heads carry a header: a used head tallies its block into the
// areas it covers, a free head must be linked into a list, and every other
// frame is header-less (block interiors, pcp-cached, offlined). Lock held.
func (a *Alloc) walkHeaders() (usedByArea []uint16, headerless uint64, err error) {
	usedByArea = make([]uint16, a.areas)
	for pfn := uint64(0); pfn < a.frames; {
		h := a.hdr[pfn]
		if h == 0 {
			headerless++
			pfn++
			continue
		}
		n := uint64(1) << (h & hdrOrder)
		if h&(hdrFree|hdrUsed) == 0 || h&hdrOrder > maxOrder || pfn+n > a.frames || pfn&(n-1) != 0 {
			return nil, 0, fmt.Errorf("%w: header %#x at frame %d is not a block head that fits the zone",
				ErrBadState, h, pfn)
		}
		if h&hdrFree != 0 && a.next[pfn] == uint32(pfn) {
			return nil, 0, fmt.Errorf("%w: free block %d is on no list", ErrBadState, pfn)
		}
		for off := uint64(0); off < n; off++ {
			if off > 0 && a.hdr[pfn+off] != 0 {
				return nil, 0, fmt.Errorf("%w: header at frame %d inside block %d", ErrBadState, pfn+off, pfn)
			}
			if h&hdrFree == 0 {
				usedByArea[(pfn+off)/mem.FramesPerHuge]++
			}
		}
		pfn += n
	}
	return usedByArea, headerless, nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("buddy: validate: "+format, args...)
}
