// Package ept simulates the extended page tables (second-stage translation)
// of one VM. It tracks, per 2 MiB guest-physical area, which base frames
// are backed by host-physical memory, and counts map/unmap/fault
// operations. A mapped frame is a populated frame: the resident-set size
// of the VM process is the table's MappedBytes.
//
// Costs are charged by the mechanisms that drive the table (they know
// about syscall batching, prepopulation, and VFIO), not here.
package ept

import (
	"fmt"

	"hyperalloc/internal/mem"
	"hyperalloc/internal/trace"
)

// Table is the EPT of one VM.
type Table struct {
	frames uint64
	areas  []area

	// populated holds one bit per area, set iff the area's mapped count
	// is non-zero. It is derived from areas (rebuilt on restore, never
	// serialised) and updated only when a count crosses zero, so scans
	// for populated areas read one word per 64 areas.
	populated []uint64

	mappedFrames uint64

	Ops

	// Dirty logging (live migration): while tracking is on, mapped frames
	// are write-protected and the first write to a clean frame (2 MiB
	// granularity when the area is huge-mapped) sets its dirty bit. See
	// dirty.go.
	tracking    bool
	dirtyFrames uint64

	tp *tableProbe // nil unless SetTrace wired a tracer
}

// tableProbe mirrors the table's op counters into a tracer and keeps a
// live mapped-bytes gauge (the VM's RSS as a Perfetto counter track).
// Faults additionally emit instants so fault storms are visible on the
// timeline. Nil when tracing is off: one pointer test per op.
type tableProbe struct {
	track     *trace.Track
	mapHuge   *trace.Counter
	unmapHuge *trace.Counter
	mapBase   *trace.Counter
	unmapBase *trace.Counter
	faults    *trace.Counter
	mapped    *trace.Gauge
}

// SetTrace attaches tracing under the given track name (e.g. "vm0/ept").
// A nil tracer detaches.
func (t *Table) SetTrace(tr *trace.Tracer, name string) {
	if tr == nil {
		t.tp = nil
		return
	}
	reg := tr.Registry()
	t.tp = &tableProbe{
		track:     tr.Track(name),
		mapHuge:   reg.Counter(name + "/map_huge"),
		unmapHuge: reg.Counter(name + "/unmap_huge"),
		mapBase:   reg.Counter(name + "/map_base"),
		unmapBase: reg.Counter(name + "/unmap_base"),
		faults:    reg.Counter(name + "/faults"),
		mapped:    reg.Gauge(name + "/mapped_bytes"),
	}
	t.tp.mapped.Set(int64(t.MappedBytes()))
}

// Ops counts the table's operations.
type Ops struct {
	MapHugeOps   uint64 `json:",omitempty"`
	UnmapHugeOps uint64 `json:",omitempty"`
	MapBaseOps   uint64 `json:",omitempty"`
	UnmapBaseOps uint64 `json:",omitempty"`
	Faults       uint64 `json:",omitempty"`
}

type area struct {
	huge   bool   // mapped by a single 2 MiB EPT entry
	mapped uint16 // mapped base frames (512 when huge)
	// fragmented: a 4 KiB hole was punched into this area (madvise of a
	// subrange splits the THP backing); later faults map base pages until
	// the area is explicitly huge-mapped again.
	fragmented bool
	bitmap     []uint64

	// Dirty-logging state, maintained only while Table.tracking is set.
	// A huge-mapped area is dirtied whole (the hardware dirty bit sits on
	// the one 2 MiB entry), so its dirtyCount is either 0 or the area's
	// frame count; a base-mapped area tracks per-4KiB bits.
	dirty      []uint64
	dirtyCount uint16
}

// New creates an EPT covering the given number of guest base frames, all
// unmapped.
func New(frames uint64) *Table {
	areas := (frames + mem.FramesPerHuge - 1) / mem.FramesPerHuge
	return &Table{frames: frames, areas: make([]area, areas), populated: make([]uint64, (areas+63)/64)}
}

// Frames returns the number of guest frames covered.
func (t *Table) Frames() uint64 { return t.frames }

// Areas returns the number of 2 MiB areas covered.
func (t *Table) Areas() uint64 { return uint64(len(t.areas)) }

// MappedBytes returns the populated guest memory — the VM's RSS.
func (t *Table) MappedBytes() uint64 { return t.mappedFrames * mem.PageSize }

// MappedFrames returns the number of populated base frames.
func (t *Table) MappedFrames() uint64 { return t.mappedFrames }

// AreaMapped returns how many base frames of the area are populated.
func (t *Table) AreaMapped(areaIdx uint64) uint64 {
	if areaIdx >= uint64(len(t.areas)) {
		return 0
	}
	return uint64(t.areas[areaIdx].mapped)
}

// PopulatedMask returns the populated bits of the 64 areas starting at
// fromArea, which need not be 64-aligned: bit i is set iff area
// fromArea+i has at least one mapped frame. Areas beyond the table read
// as unpopulated.
func (t *Table) PopulatedMask(fromArea uint64) uint64 {
	w, s := fromArea/64, fromArea%64
	if w >= uint64(len(t.populated)) {
		return 0
	}
	m := t.populated[w] >> s
	if s != 0 && w+1 < uint64(len(t.populated)) {
		m |= t.populated[w+1] << (64 - s)
	}
	return m
}

func (t *Table) setPopulated(areaIdx uint64) {
	t.populated[areaIdx/64] |= 1 << (areaIdx % 64)
}

func (t *Table) clearPopulated(areaIdx uint64) {
	t.populated[areaIdx/64] &^= 1 << (areaIdx % 64)
}

// AreaFullyMapped reports whether every frame of the area is populated.
func (t *Table) AreaFullyMapped(areaIdx uint64) bool {
	return t.AreaMapped(areaIdx) == t.areaFrames(areaIdx)
}

func (t *Table) areaFrames(areaIdx uint64) uint64 {
	start := areaIdx * mem.FramesPerHuge
	if start+mem.FramesPerHuge > t.frames {
		return t.frames - start
	}
	return mem.FramesPerHuge
}

// MapHuge maps the entire area with a 2 MiB entry. Frames already mapped
// individually are absorbed. Returns the number of newly populated frames.
func (t *Table) MapHuge(areaIdx uint64) (uint64, error) {
	if areaIdx >= uint64(len(t.areas)) {
		return 0, fmt.Errorf("ept: map huge: area %d out of range", areaIdx)
	}
	a := &t.areas[areaIdx]
	n := t.areaFrames(areaIdx)
	newly := n - uint64(a.mapped)
	if a.mapped == 0 {
		t.setPopulated(areaIdx)
	}
	a.huge = true
	a.fragmented = false
	a.mapped = uint16(n)
	a.bitmap = nil
	t.mappedFrames += newly
	if t.tracking {
		// Freshly populated frames are dirty by definition: their content
		// was just written and has never been transferred.
		t.fillDirty(areaIdx)
	}
	t.MapHugeOps++
	if t.tp != nil {
		t.tp.mapHuge.Inc()
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return newly, nil
}

// UnmapHuge removes all mappings of the area. Returns the number of frames
// that were populated.
func (t *Table) UnmapHuge(areaIdx uint64) (uint64, error) {
	if areaIdx >= uint64(len(t.areas)) {
		return 0, fmt.Errorf("ept: unmap huge: area %d out of range", areaIdx)
	}
	a := &t.areas[areaIdx]
	was := uint64(a.mapped)
	if was != 0 {
		t.clearPopulated(areaIdx)
	}
	a.huge = false
	a.mapped = 0
	a.bitmap = nil
	t.mappedFrames -= was
	if a.dirtyCount > 0 {
		// Unmapped frames have no content to transfer anymore.
		t.dirtyFrames -= uint64(a.dirtyCount)
		a.dirty, a.dirtyCount = nil, 0
	}
	t.UnmapHugeOps++
	if t.tp != nil {
		t.tp.unmapHuge.Inc()
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return was, nil
}

// MapBase maps a single base frame (populate-on-fault for 4 KiB pages).
// Returns whether it was newly populated.
func (t *Table) MapBase(pfn mem.PFN) (bool, error) {
	p := uint64(pfn)
	if p >= t.frames {
		return false, fmt.Errorf("ept: map base: pfn %d out of range", p)
	}
	a := &t.areas[p/mem.FramesPerHuge]
	t.MapBaseOps++
	if t.tp != nil {
		t.tp.mapBase.Inc()
	}
	if a.huge {
		return false, nil
	}
	if a.bitmap == nil {
		a.bitmap = make([]uint64, mem.FramesPerHuge/64)
	}
	w, b := (p%mem.FramesPerHuge)/64, p%64
	if a.bitmap[w]&(1<<b) != 0 {
		return false, nil
	}
	a.bitmap[w] |= 1 << b
	if a.mapped == 0 {
		t.setPopulated(p / mem.FramesPerHuge)
	}
	a.mapped++
	t.mappedFrames++
	if t.tracking {
		t.setDirty(a, p)
	}
	if t.tp != nil {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return true, nil
}

// UnmapBase removes the mapping of a single base frame. Splits a huge
// mapping into base mappings first, like KVM does on madvise of a 4 KiB
// subrange. Returns whether the frame was populated.
func (t *Table) UnmapBase(pfn mem.PFN) (bool, error) {
	p := uint64(pfn)
	if p >= t.frames {
		return false, fmt.Errorf("ept: unmap base: pfn %d out of range", p)
	}
	a := &t.areas[p/mem.FramesPerHuge]
	t.UnmapBaseOps++
	if t.tp != nil {
		t.tp.unmapBase.Inc()
	}
	if a.huge {
		// Split: all frames become individually mapped, then this one is
		// removed.
		a.huge = false
		a.fragmented = true
		a.bitmap = make([]uint64, mem.FramesPerHuge/64)
		n := t.areaFrames(p / mem.FramesPerHuge)
		for i := uint64(0); i < n; i++ {
			a.bitmap[i/64] |= 1 << (i % 64)
		}
	}
	// Unmapping a frame that was never populated is a no-op on the host
	// side (no madvise is issued for an absent page), so it must not mark
	// the area fragmented: a later fault can still use one THP.
	if a.bitmap == nil {
		return false, nil
	}
	w, b := (p%mem.FramesPerHuge)/64, p%64
	if a.bitmap[w]&(1<<b) == 0 {
		return false, nil
	}
	a.bitmap[w] &^= 1 << b
	a.fragmented = true
	a.mapped--
	if a.mapped == 0 {
		t.clearPopulated(p / mem.FramesPerHuge)
	}
	t.mappedFrames--
	t.clearDirty(a, p)
	if t.tp != nil {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return true, nil
}

// AreaFragmented reports whether the host backing of the area was split
// by 4 KiB hole punching, so faults resolve with base pages.
func (t *Table) AreaFragmented(areaIdx uint64) bool {
	if areaIdx >= uint64(len(t.areas)) {
		return false
	}
	return t.areas[areaIdx].fragmented
}

// IsMapped reports whether the base frame is populated.
func (t *Table) IsMapped(pfn mem.PFN) bool {
	p := uint64(pfn)
	if p >= t.frames {
		return false
	}
	a := &t.areas[p/mem.FramesPerHuge]
	if a.huge {
		return true
	}
	if a.bitmap == nil {
		return false
	}
	return a.bitmap[(p%mem.FramesPerHuge)/64]&(1<<(p%64)) != 0
}

// Fault records an EPT violation on the given frame and maps its whole
// area with a huge entry (KVM backs VMs with transparent huge pages where
// possible, which the paper's guests enable). Returns the number of newly
// populated frames.
func (t *Table) Fault(pfn mem.PFN) (uint64, error) {
	p := uint64(pfn)
	if p >= t.frames {
		return 0, fmt.Errorf("ept: fault: pfn %d out of range", p)
	}
	t.Faults++
	if t.tp != nil {
		t.tp.faults.Inc()
		t.tp.track.Instant("fault", trace.Uint("pfn", p), trace.Bool("huge", true))
	}
	return t.MapHuge(p / mem.FramesPerHuge)
}

// FaultBase records an EPT violation that is resolved with a single 4 KiB
// mapping (used when the area was fragmented on the host side, e.g. after
// virtio-balloon discarded individual pages of it).
func (t *Table) FaultBase(pfn mem.PFN) (bool, error) {
	t.Faults++
	if t.tp != nil {
		t.tp.faults.Inc()
		t.tp.track.Instant("fault", trace.Uint("pfn", uint64(pfn)), trace.Bool("huge", false))
	}
	return t.MapBase(pfn)
}

// Validate checks the table's internal accounting: per area, a huge entry
// covers exactly the area's frames with no bitmap and no fragmented flag
// (MapHuge heals fragmentation, and a split always clears huge); a base-
// mapped area's counter equals the bitmap popcount with no bits beyond the
// tail; each area's populated bit equals mapped > 0, with no bits beyond
// the last area; and mappedFrames equals the per-area sum. Returns the
// first violation found, nil if consistent.
func (t *Table) Validate() error {
	if want := (len(t.areas) + 63) / 64; len(t.populated) != want {
		return fmt.Errorf("ept: populated bitmap has %d words, want %d", len(t.populated), want)
	}
	if tail := len(t.areas) % 64; tail != 0 && t.populated[len(t.populated)-1]>>tail != 0 {
		return fmt.Errorf("ept: populated bits set beyond area %d", len(t.areas)-1)
	}
	var total, dirtyTotal uint64
	for i := range t.areas {
		a := &t.areas[i]
		n := t.areaFrames(uint64(i))
		if a.huge {
			if uint64(a.mapped) != n {
				return fmt.Errorf("ept: area %d: huge but mapped=%d of %d", i, a.mapped, n)
			}
			if a.bitmap != nil {
				return fmt.Errorf("ept: area %d: huge with a base bitmap", i)
			}
			if a.fragmented {
				return fmt.Errorf("ept: area %d: huge and fragmented", i)
			}
		} else {
			var pop uint64
			for w, word := range a.bitmap {
				for b := 0; b < 64; b++ {
					if word&(1<<b) == 0 {
						continue
					}
					if uint64(w*64+b) >= n {
						return fmt.Errorf("ept: area %d: frame %d mapped beyond the tail (%d frames)", i, w*64+b, n)
					}
					pop++
				}
			}
			if pop != uint64(a.mapped) {
				return fmt.Errorf("ept: area %d: mapped=%d but bitmap popcount=%d", i, a.mapped, pop)
			}
		}
		if bit := t.populated[i/64]>>(i%64)&1 != 0; bit != (a.mapped > 0) {
			return fmt.Errorf("ept: area %d: populated bit %v but mapped=%d", i, bit, a.mapped)
		}
		total += uint64(a.mapped)
		if err := t.validateDirty(uint64(i), n); err != nil {
			return err
		}
		dirtyTotal += uint64(a.dirtyCount)
	}
	if total != t.mappedFrames {
		return fmt.Errorf("ept: mappedFrames=%d but areas sum to %d", t.mappedFrames, total)
	}
	if dirtyTotal != t.dirtyFrames {
		return fmt.Errorf("ept: dirtyFrames=%d but areas sum to %d", t.dirtyFrames, dirtyTotal)
	}
	return nil
}
