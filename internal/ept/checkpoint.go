package ept

import (
	"fmt"
	"math/bits"

	"hyperalloc/internal/mem"
)

// AreaState is the serialized state of one non-empty 2 MiB area. Empty
// areas (unmapped, clean) are omitted from TableState — most of a freshly
// shrunk VM's table is empty. The mapped count is derived on restore: a
// huge area is fully mapped, a base area maps its bitmap's popcount.
type AreaState struct {
	Idx        uint64
	Huge       bool     `json:",omitempty"`
	Fragmented bool     `json:",omitempty"`
	Bitmap     []uint64 `json:",omitempty"`
	Dirty      []uint64 `json:",omitempty"`
	DirtyCount uint16   `json:",omitempty"`
}

// TableState is the serializable state of an EPT. The mapped and dirty
// frame totals are the per-area sums, recomputed on restore.
type TableState struct {
	Frames uint64
	Areas  []AreaState `json:",omitempty"`
	Ops
	Tracking bool `json:",omitempty"`
}

// State captures the table.
func (t *Table) State() *TableState {
	st := &TableState{Frames: t.frames, Ops: t.Ops, Tracking: t.tracking}
	for i := range t.areas {
		a := &t.areas[i]
		if !a.huge && a.mapped == 0 && !a.fragmented && a.dirtyCount == 0 {
			continue
		}
		st.Areas = append(st.Areas, AreaState{
			Idx: uint64(i), Huge: a.huge, Fragmented: a.fragmented,
			Bitmap:     append([]uint64(nil), a.bitmap...),
			Dirty:      append([]uint64(nil), a.dirty...),
			DirtyCount: a.dirtyCount,
		})
	}
	return st
}

// RestoreState overwrites the table with a checkpointed state. The table
// must cover the same number of frames (it was rebuilt from the same
// spec).
func (t *Table) RestoreState(st *TableState) error {
	if st.Frames != t.frames {
		return fmt.Errorf("ept: restore: table covers %d frames, checkpoint %d", t.frames, st.Frames)
	}
	for i := range t.areas {
		t.areas[i] = area{}
	}
	clear(t.populated)
	t.mappedFrames, t.dirtyFrames = 0, 0
	for _, as := range st.Areas {
		if as.Idx >= uint64(len(t.areas)) {
			return fmt.Errorf("ept: restore: area %d out of range", as.Idx)
		}
		for _, bm := range [][]uint64{as.Bitmap, as.Dirty} {
			if bm != nil && len(bm) != mem.FramesPerHuge/64 {
				return fmt.Errorf("ept: restore: area %d has a %d-word bitmap", as.Idx, len(bm))
			}
		}
		mapped := t.areaFrames(as.Idx)
		if !as.Huge {
			mapped = 0
			for _, w := range as.Bitmap {
				mapped += uint64(bits.OnesCount64(w))
			}
		}
		t.areas[as.Idx] = area{
			huge: as.Huge, mapped: uint16(mapped), fragmented: as.Fragmented,
			bitmap:     append([]uint64(nil), as.Bitmap...),
			dirty:      append([]uint64(nil), as.Dirty...),
			dirtyCount: as.DirtyCount,
		}
		if mapped != 0 {
			t.setPopulated(as.Idx)
		}
		t.mappedFrames += mapped
		t.dirtyFrames += uint64(as.DirtyCount)
	}
	t.Ops = st.Ops
	t.tracking = st.Tracking
	if t.tp != nil {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return t.Validate()
}
