package llfree

import (
	"errors"
	"testing"

	"hyperalloc/internal/mem"
)

func newAlloc(t testing.TB, frames uint64) *Alloc {
	t.Helper()
	a, err := New(Config{Frames: frames})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

const testFrames = 64 * 1024 // 256 MiB, 128 areas, 16 trees

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for zero frames")
	}
	if _, err := New(Config{Frames: 512, TreeAreas: 1 << 20}); err == nil {
		t.Fatal("expected error for oversized tree")
	}
}

func TestNewGeometry(t *testing.T) {
	a := newAlloc(t, testFrames)
	if a.Frames() != testFrames {
		t.Errorf("Frames = %d", a.Frames())
	}
	if a.Areas() != testFrames/512 {
		t.Errorf("Areas = %d", a.Areas())
	}
	if a.TreeAreas() != DefaultTreeAreas {
		t.Errorf("TreeAreas = %d", a.TreeAreas())
	}
	if a.Trees() != testFrames/512/DefaultTreeAreas {
		t.Errorf("Trees = %d", a.Trees())
	}
	if a.FreeFrames() != testFrames {
		t.Errorf("FreeFrames = %d, want all free", a.FreeFrames())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialTailArea(t *testing.T) {
	// 1000 frames: one full area + a partial area with 488 frames.
	a := newAlloc(t, 1000)
	if a.Areas() != 2 {
		t.Fatalf("Areas = %d", a.Areas())
	}
	if a.FreeFrames() != 1000 {
		t.Fatalf("FreeFrames = %d", a.FreeFrames())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// The partial area must never be huge-allocated.
	seen := 0
	for i := 0; i < 2; i++ {
		if _, err := a.Get(0, mem.HugeOrder, mem.Huge); err == nil {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("huge allocations from 1000-frame allocator = %d, want 1", seen)
	}
	// But its base frames are allocatable.
	got := 0
	for {
		if _, err := a.Get(0, 0, mem.Movable); err != nil {
			break
		}
		got++
	}
	if got != 488 {
		t.Errorf("base frames after huge alloc = %d, want 488", got)
	}
}

func TestGetPutBase(t *testing.T) {
	a := newAlloc(t, testFrames)
	f, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if f.Evicted {
		t.Error("fresh frame marked evicted")
	}
	if !a.BlockAllocated(uint64(f.PFN), 0) {
		t.Error("allocated frame not marked allocated")
	}
	if a.FreeFrames() != testFrames-1 {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	if err := a.Put(0, f.PFN, 0); err != nil {
		t.Fatal(err)
	}
	if a.BlockAllocated(uint64(f.PFN), 0) {
		t.Error("freed frame still allocated")
	}
	if a.FreeFrames() != testFrames {
		t.Errorf("FreeFrames = %d after free", a.FreeFrames())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGetUniquePFNs(t *testing.T) {
	a := newAlloc(t, testFrames)
	seen := make(map[mem.PFN]bool)
	for i := 0; i < 4096; i++ {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.PFN] {
			t.Fatalf("duplicate PFN %d", f.PFN)
		}
		seen[f.PFN] = true
	}
}

func TestGetAllOrders(t *testing.T) {
	a := newAlloc(t, testFrames)
	for order := mem.Order(0); order <= mem.HugeOrder; order++ {
		f, err := a.Get(0, order, mem.Movable)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if !f.PFN.AlignedTo(uint(order)) {
			t.Errorf("order %d: pfn %d misaligned", order, f.PFN)
		}
		if !a.BlockAllocated(uint64(f.PFN), order) {
			t.Errorf("order %d: block at %d not allocated", order, f.PFN)
		}
		if err := a.Put(0, f.PFN, order); err != nil {
			t.Fatalf("put order %d: %v", order, err)
		}
	}
	if a.FreeFrames() != testFrames {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGetInvalidOrder(t *testing.T) {
	a := newAlloc(t, testFrames)
	if _, err := a.Get(0, mem.HugeOrder+1, mem.Movable); err == nil {
		t.Error("expected error for order 10 via Get")
	}
}

func TestPutErrors(t *testing.T) {
	a := newAlloc(t, testFrames)
	if err := a.Put(0, 0, 0); err == nil {
		t.Error("double free not detected")
	}
	if err := a.Put(0, mem.PFN(testFrames), 0); err == nil {
		t.Error("out-of-range free not detected")
	}
	if err := a.Put(0, 1, 1); err == nil {
		t.Error("misaligned free not detected")
	}
	if err := a.Put(0, 0, mem.HugeOrder); err == nil {
		t.Error("huge free of non-huge area not detected")
	}
	if err := a.Put(0, 0, 11); err == nil {
		t.Error("invalid order free not detected")
	}
}

func TestHugeAllocSingleCAS(t *testing.T) {
	a := newAlloc(t, testFrames)
	f, err := a.Get(0, mem.HugeOrder, mem.Huge)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(f.PFN)%512 != 0 {
		t.Fatalf("huge pfn %d misaligned", f.PFN)
	}
	st := a.AreaState(f.PFN.HugeIndex())
	if !st.HugeAllocated || st.Free != 0 {
		t.Errorf("area state after huge alloc: %+v", st)
	}
	if err := a.Put(0, f.PFN, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	st = a.AreaState(f.PFN.HugeIndex())
	if st.HugeAllocated || st.Free != 512 {
		t.Errorf("area state after huge free: %+v", st)
	}
}

func TestExhaustion(t *testing.T) {
	a := newAlloc(t, 1024) // 2 areas
	var got []mem.PFN
	for {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got = append(got, f.PFN)
	}
	if len(got) != 1024 {
		t.Fatalf("allocated %d frames, want 1024", len(got))
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d", a.FreeFrames())
	}
	for _, p := range got {
		if err := a.Put(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d after freeing all", a.FreeFrames())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHugeExhaustion(t *testing.T) {
	a := newAlloc(t, testFrames)
	n := 0
	for {
		if _, err := a.Get(0, mem.HugeOrder, mem.Huge); err != nil {
			break
		}
		n++
	}
	if n != testFrames/512 {
		t.Fatalf("huge allocations = %d, want %d", n, testFrames/512)
	}
}

func TestBaseBlocksHuge(t *testing.T) {
	// One base allocation per area prevents every huge allocation.
	a := newAlloc(t, 8*512) // one tree
	for area := uint64(0); area < a.Areas(); area++ {
		// Consume frames until each area has one allocation: allocate all,
		// then free all but one per area.
		_ = area
	}
	var held []mem.PFN
	for i := 0; i < 8*512; i++ {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f.PFN)
	}
	// Free everything except one frame in each area.
	keep := make(map[uint64]bool)
	for _, p := range held {
		area := p.HugeIndex()
		if !keep[area] {
			keep[area] = true
			continue
		}
		if err := a.Put(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Get(0, mem.HugeOrder, mem.Huge); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected huge OOM with every area pinned, got %v", err)
	}
	if a.FreeHugeCount() != 0 {
		t.Errorf("FreeHugeCount = %d", a.FreeHugeCount())
	}
}

func TestShareSeesSameState(t *testing.T) {
	guest := newAlloc(t, testFrames)
	host := guest.Share()
	f, err := guest.Get(0, mem.HugeOrder, mem.Huge)
	if err != nil {
		t.Fatal(err)
	}
	st := host.AreaState(f.PFN.HugeIndex())
	if !st.HugeAllocated {
		t.Error("host handle does not observe guest allocation")
	}
	if host.FreeFrames() != guest.FreeFrames() {
		t.Error("free counters diverge between handles")
	}
}

func TestMetadataBytesDense(t *testing.T) {
	// 1 GiB of guest memory: bit field 32 KiB, area index 1 KiB, tree
	// index 256 B. The paper's scan-cost math (Sec. 3.3) relies on this
	// density: 18 cache lines per GiB for R (2 bit) + area entries.
	a := newAlloc(t, mem.GiB/mem.PageSize)
	meta := a.MetadataBytes()
	if meta > 64*1024 {
		t.Errorf("metadata for 1 GiB = %d B, want dense (<64 KiB)", meta)
	}
	// Area index alone: 512 entries x 2 B = 1 KiB = 16 cache lines.
	if got := a.Areas() * 2; got != 1024 {
		t.Errorf("area index bytes = %d, want 1024", got)
	}
}

// TestPartialTailAreaExhaustion allocates every frame of an allocator
// whose last area is partial: the claim paths walk the tail area's whole
// bit field, so it must cover the area beyond the last managed frame.
func TestPartialTailAreaExhaustion(t *testing.T) {
	const frames = 2*512 + 3
	for _, order := range []mem.Order{0, 1, 3} {
		a := newAlloc(t, frames)
		var got uint64
		for {
			if _, err := a.Get(0, order, mem.Movable); err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("order %d: %v", order, err)
				}
				break
			}
			got += order.Frames()
		}
		if want := frames - frames%order.Frames(); got != want {
			t.Errorf("order %d: allocated %d frames, want %d", order, got, want)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("order %d: %v", order, err)
		}
	}
}
