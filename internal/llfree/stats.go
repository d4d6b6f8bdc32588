package llfree

import (
	"fmt"
	"math/bits"

	"hyperalloc/internal/mem"
)

// Statistics over the allocator state. All counts are racy snapshots when
// taken under concurrency, which matches how the monitor inspects the
// shared state.

// FreeFrames returns the number of free base frames (sum of the tree
// counters).
func (a *Alloc) FreeFrames() uint64 {
	var free uint64
	for t := uint64(0); t < a.trees; t++ {
		free += uint64(treeFree(a.treeIdx[t].Load()))
	}
	return free
}

// AllocatedFrames returns the number of allocated base frames.
func (a *Alloc) AllocatedFrames() uint64 { return a.frames - a.FreeFrames() }

// FreeHugeCount returns the number of entirely free huge frames (evicted
// or not).
func (a *Alloc) FreeHugeCount() uint64 {
	var n uint64
	a.forEachAreaEntry(func(area uint64, e uint16) bool {
		if a.fullAreaFree(e, area) {
			n++
		}
		return true
	})
	return n
}

// FreeHugeNonEvicted returns the number of entirely free huge frames that
// are backed by host memory (E=0) — what the monitor's auto-reclaim scan
// can take.
func (a *Alloc) FreeHugeNonEvicted() uint64 {
	var n int
	for w := uint64(0); w < a.FreeHugeWords(); w++ {
		n += bits.OnesCount64(a.FreeHugeMask(w))
	}
	return uint64(n)
}

// EvictedCount returns the number of huge frames carrying the evicted
// hint.
func (a *Alloc) EvictedCount() uint64 {
	var n uint64
	a.forEachAreaEntry(func(_ uint64, e uint16) bool {
		if areaEvicted(e) {
			n++
		}
		return true
	})
	return n
}

// UsedHugeBytes returns the bytes covered by huge frames that are at least
// partially used (the "huge" series of Fig. 8: memory consumed by
// (partially) used huge pages).
func (a *Alloc) UsedHugeBytes() uint64 {
	var n uint64
	a.forEachAreaEntry(func(area uint64, e uint16) bool {
		if areaHuge(e) && areaEvicted(e) {
			return true // hard/soft-reclaimed by the host, not guest-used
		}
		if areaHuge(e) || uint64(areaFree(e)) < a.tailFrames(area) {
			n++
		}
		return true
	})
	return n * mem.HugeSize
}

// UsedBaseBytes returns the bytes actually allocated in base frames (the
// "small" series of Fig. 8). Huge allocations count fully.
func (a *Alloc) UsedBaseBytes() uint64 {
	var frames uint64
	a.forEachAreaEntry(func(area uint64, e uint16) bool {
		if areaHuge(e) {
			if !areaEvicted(e) {
				frames += 512
			}
			return true
		}
		frames += a.tailFrames(area) - uint64(areaFree(e))
		return true
	})
	return frames * mem.PageSize
}

// FragmentationRatio returns used-huge bytes over used-base bytes — 1.0 is
// perfectly compact, larger is more fragmented.
func (a *Alloc) FragmentationRatio() float64 {
	small := a.UsedBaseBytes()
	if small == 0 {
		return 1.0
	}
	return float64(a.UsedHugeBytes()) / float64(small)
}

// TreeStats describes one tree for introspection and the ablation
// benchmarks.
type TreeStats struct {
	Free     uint64
	Capacity uint64
	Reserved bool
	HasType  bool
	Type     mem.AllocType
}

// TreeInfo returns the decoded state of the given tree.
func (a *Alloc) TreeInfo(tree uint64) TreeStats {
	e := a.treeIdx[tree].Load()
	return TreeStats{
		Free:     uint64(treeFree(e)),
		Capacity: a.treeCapacity(tree),
		Reserved: treeReserved(e),
		HasType:  treeHasType(e),
		Type:     treeType(e),
	}
}

// MetadataBytes returns the size of the shared allocator state in bytes —
// what the monitor maps (bit field + area index + tree index).
func (a *Alloc) MetadataBytes() uint64 {
	return uint64(len(a.bitfield))*8 + uint64(len(a.areaIdx))*8 + uint64(len(a.treeIdx))*4
}

// Validate checks global invariants: tree counters equal the sum of their
// area counters, and area counters equal the number of zero bits (except
// for huge-allocated areas, whose counter is 0). Only meaningful while no
// operations are in flight. Returns a descriptive error on violation.
func (a *Alloc) Validate() error {
	for tree := uint64(0); tree < a.trees; tree++ {
		first := tree * a.treeAreas
		last := min(first+a.treeAreas, a.areas)
		var sum uint64
		for area := first; area < last; area++ {
			e := a.areaLoad(area)
			cnt := uint64(areaFree(e))
			sum += cnt
			if areaHuge(e) {
				if cnt != 0 {
					return errf("area %d huge-allocated with counter %d", area, cnt)
				}
				continue
			}
			freeBits := a.countFreeBits(area)
			if freeBits != cnt {
				return errf("area %d counter %d != free bits %d", area, cnt, freeBits)
			}
		}
		if got := uint64(treeFree(a.treeIdx[tree].Load())); got != sum {
			return errf("tree %d counter %d != area sum %d", tree, got, sum)
		}
	}
	// Reservation slots and the per-tree reserved bits must agree: every
	// valid slot points at a distinct in-range tree whose reserved bit is
	// set, and every reserved tree is owned by exactly one slot. (reserveTree
	// sets the bit before installing the slot and release clears it after,
	// so the bijection holds whenever no reservation change is in flight.)
	owner := make(map[uint64]int, len(a.reservations))
	for slot := range a.reservations {
		tree, ok := a.reservedTree(slot)
		if !ok {
			continue
		}
		if tree >= a.trees {
			return errf("reservation slot %d points at tree %d of %d", slot, tree, a.trees)
		}
		if !treeReserved(a.treeIdx[tree].Load()) {
			return errf("reservation slot %d points at tree %d, which is not marked reserved", slot, tree)
		}
		if prev, dup := owner[tree]; dup {
			return errf("tree %d reserved by slots %d and %d", tree, prev, slot)
		}
		owner[tree] = slot
	}
	for tree := uint64(0); tree < a.trees; tree++ {
		if treeReserved(a.treeIdx[tree].Load()) {
			if _, ok := owner[tree]; !ok {
				return errf("tree %d marked reserved but owned by no slot", tree)
			}
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("llfree: validate: "+format, args...)
}
