package llfree

import (
	"fmt"

	"hyperalloc/internal/mem"
)

// Host-side (hypervisor) operations over the shared allocator state.
// These implement the guest-visible half of HyperAlloc's reclamation state
// machine (Sec. 3.2): the hypervisor keeps its own authoritative state R
// per huge frame (package core) and induces the guest transitions below
// with single CAS operations on the area entries.

// ReclaimHard transitions a fully free huge frame to "allocated and
// evicted" (A<-1, E<-1), removing it from the guest allocator entirely.
// Fails with ErrBadState if the frame is not an entirely free huge frame.
func (a *Alloc) ReclaimHard(area uint64) error {
	if area >= a.areas {
		return fmt.Errorf("%w: area %d", ErrBadFrame, area)
	}
	_, ok := a.areaUpdate(area, func(e uint16) (uint16, bool) {
		if !a.fullAreaFree(e, area) {
			return 0, false
		}
		// Counter -> 0, huge flag and evicted hint set.
		return e&^uint16(areaCounterMask) | areaHugeFlag | areaEvictedFlag, true
	})
	if !ok {
		return fmt.Errorf("%w: area %d not a free huge frame", ErrBadState, area)
	}
	a.treeAddFree(area/a.treeAreas, -512)
	return nil
}

// ReclaimSoft sets the evicted hint on a fully free huge frame (A=0,
// E<-1): the frame stays allocatable by the guest, which will trigger an
// install when it does. Fails if the frame is not fully free or already
// evicted.
func (a *Alloc) ReclaimSoft(area uint64) error {
	if area >= a.areas {
		return fmt.Errorf("%w: area %d", ErrBadFrame, area)
	}
	_, ok := a.areaUpdate(area, func(e uint16) (uint16, bool) {
		if !a.fullAreaFree(e, area) || areaEvicted(e) {
			return 0, false
		}
		return e | areaEvictedFlag, true
	})
	if !ok {
		return fmt.Errorf("%w: area %d not reclaimable", ErrBadState, area)
	}
	return nil
}

// ReturnHuge transitions a hard-reclaimed huge frame back to soft
// reclaimed (A<-0, E<-1): the guest may allocate it again, paying an
// install on first allocation. The caller (the monitor) must only invoke
// this on frames it hard-reclaimed; the allocator cannot distinguish a
// hard-reclaimed frame from a guest-allocated one. The evicted hint is
// (re)derived from the monitor's state, not trusted — a guest may have
// tampered with it (Sec. 3.2: "we set A <- (R = H)" and "E is a mere
// read-only copy of E <- (R != I)").
func (a *Alloc) ReturnHuge(area uint64) error {
	if area >= a.areas {
		return fmt.Errorf("%w: area %d", ErrBadFrame, area)
	}
	_, ok := a.areaUpdate(area, func(e uint16) (uint16, bool) {
		if !areaHuge(e) || areaFree(e) != 0 {
			return 0, false
		}
		return e&^uint16(areaHugeFlag)&^uint16(areaCounterMask) | areaEvictedFlag | 512, true
	})
	if !ok {
		return fmt.Errorf("%w: area %d not hard-reclaimed", ErrBadState, area)
	}
	a.treeAddFree(area/a.treeAreas, 512)
	return nil
}

// SetEvicted forces the evicted hint on (used by the monitor to repair
// guest-tampered state; E is derived from R). Idempotent.
func (a *Alloc) SetEvicted(area uint64) {
	if area >= a.areas {
		return
	}
	a.areaUpdate(area, func(e uint16) (uint16, bool) {
		if areaEvicted(e) {
			return 0, false
		}
		return e | areaEvictedFlag, true
	})
}

// ClearEvicted removes the evicted hint after the hypervisor installed
// host memory for the huge frame (E <- 0). Idempotent.
func (a *Alloc) ClearEvicted(area uint64) {
	if area >= a.areas {
		return
	}
	a.areaUpdate(area, func(e uint16) (uint16, bool) {
		if !areaEvicted(e) {
			return 0, false
		}
		return e &^ uint16(areaEvictedFlag), true
	})
}

// Evicted reports the evicted hint of the huge frame.
func (a *Alloc) Evicted(area uint64) bool {
	if area >= a.areas {
		return false
	}
	return areaEvicted(a.areaLoad(area))
}

// ScanFreeHuge calls fn for every fully free, non-evicted huge frame —
// the candidates for reclamation found by the monitor's periodic linear
// scan (Sec. 3.3). The scan stops early when fn returns false. The
// snapshot is racy by design; the subsequent Reclaim* CAS is what decides.
func (a *Alloc) ScanFreeHuge(fn func(area uint64) bool) {
	a.forEachAreaEntry(func(area uint64, e uint16) bool {
		if !idleHuge(e) || a.tailFrames(area) != mem.FramesPerHuge {
			return true
		}
		return fn(area)
	})
}

// An idle area entry is fully free, not huge-allocated and not evicted:
// counter 512 with A=0 and E=0. Together with a full-size area this is
// the one definition of a reclaimable huge frame; idleHuge tests one
// entry, FreeHugeMask four packed entries at once.
const (
	idleMask  = areaCounterMask | areaHugeFlag | areaEvictedFlag
	idleEntry = mem.FramesPerHuge
)

func idleHuge(e uint16) bool { return e&idleMask == idleEntry }

// Lane constants for testing the four 16-bit entries of one areaIdx
// word at once (SWAR).
const (
	lanes     = 0x0001_0001_0001_0001
	laneState = lanes * idleMask
	laneIdle  = lanes * idleEntry
	laneLow   = lanes * 0x7fff
	laneHigh  = lanes * 0x8000
)

// FreeHugeMask returns the areas [64·word, 64·word+64) that ScanFreeHuge
// would report, as a bitmask: bit i is set iff area 64·word+i is a fully
// free, non-evicted, full-size huge frame. It reads 16 packed words —
// one atomic load per four areas — and is the word-at-a-time form of the
// monitor's scan, racy in the same way. Words beyond the allocator read
// as zero.
func (a *Alloc) FreeHugeMask(word uint64) uint64 {
	first := word * 16
	if first >= uint64(len(a.areaIdx)) {
		return 0
	}
	last := min(first+16, uint64(len(a.areaIdx)))
	var mask uint64
	for i := first; i < last; i++ {
		// A lane of x is zero iff the entry is idle. Lanes are at most
		// 0x0fff, so adding 0x7fff sets a lane's top bit iff the lane is
		// non-zero, without carrying into the next lane.
		x := a.areaIdx[i].Load()&laneState ^ laneIdle
		z := ^(x + laneLow) & laneHigh
		nib := z>>15&1 | z>>30&2 | z>>45&4 | z>>60&8
		mask |= nib << ((i - first) * 4)
	}
	// Entries past the last area are zero and never match; a partial
	// tail area is excluded like in ScanFreeHuge.
	if tail := a.areas - 1; a.tailFrames(tail) != mem.FramesPerHuge && tail/64 == word {
		mask &^= 1 << (tail % 64)
	}
	return mask
}

// FreeHugeWords returns the number of 64-area words FreeHugeMask covers.
func (a *Alloc) FreeHugeWords() uint64 { return (a.areas + 63) / 64 }
