package llfree

import (
	"math/bits"
	"sync/atomic"

	"hyperalloc/internal/mem"
)

// Bit-field operations. Each area owns 8 consecutive uint64 words (512
// bits); bit set = frame allocated. Claims and releases are CAS-only.

const wordsPerArea = 512 / 64

// groupBase[order] has one bit set at the base of every aligned 2^order
// bit group of a word (orders 0..6).
var groupBase = [7]uint64{
	^uint64(0),
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
	1,
}

// claimBits claims 2^order aligned free bits inside the area and returns
// the frame offset within the area. Orders 0..6 fit in one word; orders 7
// and 8 claim 2 or 4 entire words. Returns false if no aligned run could
// be claimed (the caller rolls back its counter reservation).
func (a *Alloc) claimBits(area uint64, order uint) (uint64, bool) {
	base := area * wordsPerArea
	if order <= 6 {
		n := uint(1) << order
		var mask uint64
		if n == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << n) - 1
		}
		gb := groupBase[order]
		// For order 0 a free bit is guaranteed to exist (the counter
		// reservation protocol), but a racing free may expose it only
		// after a few loads; retry the scan a bounded number of times.
		for attempt := 0; attempt < 64; attempt++ {
			if order <= 2 {
				// Multi-word stride for the small orders that dominate the
				// allocation mix: load 4 words per step and reject fully-
				// allocated groups with one combined test, so the scan over
				// a mostly-full area (the steady state the counter protocol
				// leaves behind) runs half an iteration per area instead of
				// a branchy per-word loop. First-fit order is preserved:
				// words within a surviving group are tried in ascending
				// order from the snapshots just loaded.
				for g := uint64(0); g < wordsPerArea; g += 4 {
					c0 := a.bitfield[base+g].Load()
					c1 := a.bitfield[base+g+1].Load()
					c2 := a.bitfield[base+g+2].Load()
					c3 := a.bitfield[base+g+3].Load()
					if c0&c1&c2&c3 == ^uint64(0) {
						continue
					}
					snaps := [4]uint64{c0, c1, c2, c3}
					for k := uint64(0); k < 4; k++ {
						if off, ok := tryClaimWord(&a.bitfield[base+g+k], snaps[k], n, mask, gb); ok {
							return (g+k)*64 + uint64(off), true
						}
					}
				}
			} else {
				for w := uint64(0); w < wordsPerArea; w++ {
					word := &a.bitfield[base+w]
					if off, ok := tryClaimWord(word, word.Load(), n, mask, gb); ok {
						return w*64 + uint64(off), true
					}
				}
			}
			if order != 0 {
				// No aligned run; higher orders are not guaranteed one.
				return 0, false
			}
		}
		return 0, false
	}
	// Orders 7/8: claim 2 or 4 whole words.
	nWords := uint64(1) << (order - 6)
	for g := uint64(0); g+nWords <= wordsPerArea; g += nWords {
		if a.claimWords(base+g, nWords) {
			return g * 64, true
		}
	}
	return 0, false
}

// tryClaimWord claims the lowest aligned free 2^order group inside one
// word, starting from the snapshot cur and re-loading on CAS failure.
// Returns the bit offset on success; false once the word holds no free
// group. n, mask, and gb are the caller's precomputed order constants.
func tryClaimWord(word *atomic.Uint64, cur uint64, n uint, mask, gb uint64) (uint, bool) {
	for {
		if cur == ^uint64(0) {
			return 0, false
		}
		// Aligned-run search without probing every offset: a prefix-OR
		// fold smears any set bit of a group onto the group's base bit,
		// so the inverted fold masked to the group bases enumerates every
		// fully-free aligned group and a single TrailingZeros64 finds the
		// lowest one. The fold width is fixed per call, so the branches
		// predict perfectly. n == 1 needs no fold (any free bit is a free
		// group); n == 64 degenerates to "word must be empty".
		var g uint64
		if n == 1 {
			g = ^cur // non-zero: full words were rejected above
		} else if n == 64 {
			if cur != 0 {
				return 0, false
			}
			g = 1
		} else {
			x := cur | cur>>1
			if n > 2 {
				x |= x >> 2
			}
			if n > 4 {
				x |= x >> 4
			}
			if n > 8 {
				x |= x >> 8
			}
			if n > 16 {
				x |= x >> 16
			}
			g = ^x & gb
			if g == 0 {
				return 0, false
			}
		}
		off := uint(bits.TrailingZeros64(g))
		if word.CompareAndSwap(cur, cur|mask<<off) {
			return off, true
		}
		cur = word.Load()
	}
}

// claimWords claims nWords fully-free words starting at idx, rolling back
// on partial failure.
func (a *Alloc) claimWords(idx, nWords uint64) bool {
	for i := uint64(0); i < nWords; i++ {
		if !a.bitfield[idx+i].CompareAndSwap(0, ^uint64(0)) {
			// Roll back the words already claimed. A word we claimed reads
			// all-ones and only its owner — us — may clear bits in it:
			// claimants CAS from a snapshot with the target bits free, and
			// releases require the bits to be set by their owner. The CAS
			// (rather than a blind store) asserts that invariant; a failure
			// means another thread modified frames it does not own.
			for j := uint64(0); j < i; j++ {
				if !a.bitfield[idx+j].CompareAndSwap(^uint64(0), 0) {
					panic("llfree: claimWords rollback raced with a foreign write")
				}
			}
			return false
		}
	}
	return true
}

// releaseBits clears 2^order bits starting at the area-relative offset.
// It returns false (without modifying anything further) if any bit was
// already clear — a double free.
func (a *Alloc) releaseBits(area, offset uint64, order uint) bool {
	base := area * wordsPerArea
	n := uint64(1) << order
	if order <= 6 {
		var mask uint64
		if n == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << n) - 1
		}
		mask <<= offset % 64
		word := &a.bitfield[base+offset/64]
		for {
			cur := word.Load()
			if cur&mask != mask {
				return false
			}
			if word.CompareAndSwap(cur, cur&^mask) {
				return true
			}
		}
	}
	nWords := n / 64
	first := base + offset/64
	for i := uint64(0); i < nWords; i++ {
		if a.bitfield[first+i].Load() != ^uint64(0) {
			return false
		}
	}
	for i := uint64(0); i < nWords; i++ {
		a.bitfield[first+i].Store(0)
	}
	return true
}

// BlockAllocated reports whether the aligned 2^order block at pfn is held
// the way one allocation of that order leaves it: the area's huge flag at
// the huge order, otherwise every one of the block's bits set in an area
// that is not huge-allocated (huge areas keep their bits clear). Orders
// 0..6 test one word under a mask; orders 7 and 8 test 2 or 4 whole
// words. Out-of-range, misaligned or larger-than-huge blocks are never
// held.
func (a *Alloc) BlockAllocated(pfn uint64, order mem.Order) bool {
	if order > mem.HugeOrder || pfn >= a.frames || order.Frames() > a.frames-pfn || pfn%order.Frames() != 0 {
		return false
	}
	huge := areaHuge(a.areaLoad(pfn / mem.FramesPerHuge))
	if order == mem.HugeOrder {
		return huge
	}
	if huge { // a huge allocation holds no smaller block
		return false
	}
	n := order.Frames()
	if n < 64 {
		mask := (uint64(1)<<n - 1) << (pfn % 64)
		return a.bitfield[pfn/64].Load()&mask == mask
	}
	for w := pfn / 64; w < (pfn+n)/64; w++ {
		if a.bitfield[w].Load() != ^uint64(0) {
			return false
		}
	}
	return true
}

// countFreeBits returns the number of zero bits in the area's bit field
// (test helper; racy under concurrency).
func (a *Alloc) countFreeBits(area uint64) uint64 {
	base := area * wordsPerArea
	var free uint64
	for w := uint64(0); w < wordsPerArea; w++ {
		free += uint64(bits.OnesCount64(^a.bitfield[base+w].Load()))
	}
	return free
}
