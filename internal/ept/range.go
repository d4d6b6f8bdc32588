package ept

import (
	"fmt"
	"math/bits"

	"hyperalloc/internal/mem"
	"hyperalloc/internal/trace"
)

// Range operations: batched equivalents of the per-frame MapBase/UnmapBase
// loops. They walk each 512-entry area one 64-bit bitmap word at a time
// instead of one frame at a time, and are pinned byte-identical to the
// per-frame loops (state, counters, and trace output) by the equivalence
// tests in range_test.go. Operation counters advance by the range length —
// exactly what n per-frame calls would have recorded, including the calls
// that would have been no-ops.

// forEachMaskedWord calls fn(w, mask) for every bitmap word of one area
// overlapped by the absolute frame range [p, end), with mask selecting the
// covered bits. p and end must lie within the same area.
func forEachMaskedWord(p, end uint64, fn func(w, mask uint64)) {
	for p < end {
		w, b := (p%mem.FramesPerHuge)/64, p%64
		span := 64 - b
		if span > end-p {
			span = end - p
		}
		mask := ^uint64(0)
		if span < 64 {
			mask = (1<<span - 1) << b
		}
		fn(w, mask)
		p += span
	}
}

// emitRuns calls fn once per run of consecutive set bits in word, as
// absolute frame ranges based at wordBase.
func emitRuns(word, wordBase uint64, fn func(pfn mem.PFN, frames uint64)) {
	for word != 0 {
		lo := uint64(bits.TrailingZeros64(word))
		run := uint64(bits.TrailingZeros64(^(word >> lo)))
		fn(mem.PFN(wordBase+lo), run)
		word &^= (1<<run - 1) << lo
	}
}

// MapRange maps the base frames [pfn, pfn+frames), equivalent to calling
// MapBase on each frame. Returns the number of newly populated frames.
func (t *Table) MapRange(pfn mem.PFN, frames uint64) (uint64, error) {
	if frames == 0 {
		return 0, nil
	}
	p := uint64(pfn)
	if p >= t.frames || frames > t.frames-p {
		return 0, fmt.Errorf("ept: map range: [%d, %d) out of range", p, p+frames)
	}
	t.MapBaseOps += frames
	if t.tp != nil {
		t.tp.mapBase.Add(frames)
	}
	end := p + frames
	var newly uint64
	for p < end {
		ai := p / mem.FramesPerHuge
		a := &t.areas[ai]
		aEnd := (ai + 1) * mem.FramesPerHuge
		if aEnd > end {
			aEnd = end
		}
		if a.huge {
			p = aEnd
			continue
		}
		if a.bitmap == nil {
			a.bitmap = make([]uint64, mem.FramesPerHuge/64)
		}
		wasEmpty := a.mapped == 0
		forEachMaskedWord(p, aEnd, func(w, mask uint64) {
			newBits := mask &^ a.bitmap[w]
			if newBits == 0 {
				return
			}
			a.bitmap[w] |= newBits
			c := uint64(bits.OnesCount64(newBits))
			a.mapped += uint16(c)
			newly += c
			if t.tracking {
				// Born dirty, like MapBase under tracking.
				if a.dirty == nil {
					a.dirty = make([]uint64, mem.FramesPerHuge/64)
				}
				dd := newBits &^ a.dirty[w]
				a.dirty[w] |= dd
				dc := uint64(bits.OnesCount64(dd))
				a.dirtyCount += uint16(dc)
				t.dirtyFrames += dc
			}
		})
		if wasEmpty && a.mapped != 0 {
			t.setPopulated(ai)
		}
		p = aEnd
	}
	t.mappedFrames += newly
	if t.tp != nil && newly > 0 {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return newly, nil
}

// UnmapRange unmaps the base frames [pfn, pfn+frames), equivalent to
// calling UnmapBase on each frame: huge mappings in the range are split
// first, and only actually-populated frames mark their area fragmented.
// When cleared is non-nil it receives every run of frames that were
// populated (and are unmapped now) — the hook DMA bookkeeping uses to
// mark exactly those frames stale. Returns the populated-frame count.
func (t *Table) UnmapRange(pfn mem.PFN, frames uint64, cleared func(pfn mem.PFN, frames uint64)) (uint64, error) {
	if frames == 0 {
		return 0, nil
	}
	p := uint64(pfn)
	if p >= t.frames || frames > t.frames-p {
		return 0, fmt.Errorf("ept: unmap range: [%d, %d) out of range", p, p+frames)
	}
	t.UnmapBaseOps += frames
	if t.tp != nil {
		t.tp.unmapBase.Add(frames)
	}
	end := p + frames
	var was uint64
	for p < end {
		ai := p / mem.FramesPerHuge
		a := &t.areas[ai]
		aEnd := (ai + 1) * mem.FramesPerHuge
		if aEnd > end {
			aEnd = end
		}
		if a.huge {
			// Split: all frames become individually mapped, then the
			// covered ones are removed below.
			a.huge = false
			a.fragmented = true
			a.bitmap = make([]uint64, mem.FramesPerHuge/64)
			n := t.areaFrames(ai)
			for i := uint64(0); i < n/64; i++ {
				a.bitmap[i] = ^uint64(0)
			}
			if rem := n % 64; rem != 0 {
				a.bitmap[n/64] = 1<<rem - 1
			}
		}
		if a.bitmap == nil {
			p = aEnd
			continue
		}
		base := ai * mem.FramesPerHuge
		wasPopulated := a.mapped != 0
		forEachMaskedWord(p, aEnd, func(w, mask uint64) {
			clearedBits := a.bitmap[w] & mask
			if clearedBits == 0 {
				return
			}
			a.bitmap[w] &^= clearedBits
			a.fragmented = true
			c := uint64(bits.OnesCount64(clearedBits))
			a.mapped -= uint16(c)
			was += c
			if a.dirty != nil {
				if dd := a.dirty[w] & clearedBits; dd != 0 {
					a.dirty[w] &^= dd
					dc := uint64(bits.OnesCount64(dd))
					a.dirtyCount -= uint16(dc)
					t.dirtyFrames -= dc
				}
			}
			if cleared != nil {
				emitRuns(clearedBits, base+w*64, cleared)
			}
		})
		if wasPopulated && a.mapped == 0 {
			t.clearPopulated(ai)
		}
		p = aEnd
	}
	t.mappedFrames -= was
	if t.tp != nil && was > 0 {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return was, nil
}

// PopulateRange huge-maps the areas [fromArea, fromArea+nAreas),
// equivalent to calling MapHuge on each. Returns the number of newly
// populated frames.
func (t *Table) PopulateRange(fromArea, nAreas uint64) (uint64, error) {
	var newly uint64
	for i := uint64(0); i < nAreas; i++ {
		n, err := t.MapHuge(fromArea + i)
		if err != nil {
			return newly, err
		}
		newly += n
	}
	return newly, nil
}

// FaultRange records EPT violations on [pfn, pfn+frames) that are all
// resolved with 4 KiB mappings — the batched form of calling FaultBase on
// each frame of a fragmented region. Returns the newly populated count.
func (t *Table) FaultRange(pfn mem.PFN, frames uint64) (uint64, error) {
	if frames == 0 {
		return 0, nil
	}
	t.Faults += frames
	if t.tp != nil {
		t.tp.faults.Add(frames)
		t.tp.track.Instant("fault_range",
			trace.Uint("pfn", uint64(pfn)), trace.Uint("frames", frames), trace.Bool("huge", false))
	}
	return t.MapRange(pfn, frames)
}
