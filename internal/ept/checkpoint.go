package ept

import "fmt"

// AreaState is the serialized state of one non-empty 2 MiB area. Empty
// areas (unmapped, clean) are omitted from TableState — most of a freshly
// shrunk VM's table is empty.
type AreaState struct {
	Idx        uint64
	Huge       bool     `json:",omitempty"`
	Mapped     uint16   `json:",omitempty"`
	Fragmented bool     `json:",omitempty"`
	Bitmap     []uint64 `json:",omitempty"`
	Dirty      []uint64 `json:",omitempty"`
	DirtyCount uint16   `json:",omitempty"`
}

// TableState is the serializable state of an EPT.
type TableState struct {
	Frames       uint64
	MappedFrames uint64
	Areas        []AreaState `json:",omitempty"`

	MapHugeOps   uint64 `json:",omitempty"`
	UnmapHugeOps uint64 `json:",omitempty"`
	MapBaseOps   uint64 `json:",omitempty"`
	UnmapBaseOps uint64 `json:",omitempty"`
	Faults       uint64 `json:",omitempty"`

	Tracking    bool   `json:",omitempty"`
	DirtyFrames uint64 `json:",omitempty"`
}

// State captures the table.
func (t *Table) State() *TableState {
	st := &TableState{
		Frames:       t.frames,
		MappedFrames: t.mappedFrames,
		MapHugeOps:   t.MapHugeOps,
		UnmapHugeOps: t.UnmapHugeOps,
		MapBaseOps:   t.MapBaseOps,
		UnmapBaseOps: t.UnmapBaseOps,
		Faults:       t.Faults,
		Tracking:     t.tracking,
		DirtyFrames:  t.dirtyFrames,
	}
	for i := range t.areas {
		a := &t.areas[i]
		if !a.huge && a.mapped == 0 && !a.fragmented && a.dirtyCount == 0 {
			continue
		}
		st.Areas = append(st.Areas, AreaState{
			Idx: uint64(i), Huge: a.huge, Mapped: a.mapped, Fragmented: a.fragmented,
			Bitmap: append([]uint64(nil), a.bitmap...),
			Dirty:  append([]uint64(nil), a.dirty...),
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
	for _, as := range st.Areas {
		if as.Idx >= uint64(len(t.areas)) {
			return fmt.Errorf("ept: restore: area %d out of range", as.Idx)
		}
		t.areas[as.Idx] = area{
			huge: as.Huge, mapped: as.Mapped, fragmented: as.Fragmented,
			bitmap:     append([]uint64(nil), as.Bitmap...),
			dirty:      append([]uint64(nil), as.Dirty...),
			dirtyCount: as.DirtyCount,
		}
		if as.Mapped != 0 {
			t.setPopulated(as.Idx)
		}
	}
	t.mappedFrames = st.MappedFrames
	t.MapHugeOps = st.MapHugeOps
	t.UnmapHugeOps = st.UnmapHugeOps
	t.MapBaseOps = st.MapBaseOps
	t.UnmapBaseOps = st.UnmapBaseOps
	t.Faults = st.Faults
	t.tracking = st.Tracking
	t.dirtyFrames = st.DirtyFrames
	if t.tp != nil {
		t.tp.mapped.Set(int64(t.MappedBytes()))
	}
	return t.Validate()
}
