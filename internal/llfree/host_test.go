package llfree

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"hyperalloc/internal/mem"
)

func TestReclaimHard(t *testing.T) {
	a := newAlloc(t, testFrames)
	host := a.Share()
	if err := host.ReclaimHard(3); err != nil {
		t.Fatal(err)
	}
	st := a.AreaState(3)
	if !st.HugeAllocated || !st.Evicted || st.Free != 0 {
		t.Errorf("state after hard reclaim: %+v", st)
	}
	if a.FreeFrames() != testFrames-512 {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	// Hard-reclaimed frames cannot be reclaimed again or freed by the guest.
	if err := host.ReclaimHard(3); !errors.Is(err, ErrBadState) {
		t.Errorf("double hard reclaim: %v", err)
	}
	if err := host.ReclaimSoft(3); !errors.Is(err, ErrBadState) {
		t.Errorf("soft reclaim of hard-reclaimed: %v", err)
	}
}

func TestReclaimHardBusyArea(t *testing.T) {
	a := newAlloc(t, testFrames)
	f, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReclaimHard(f.PFN.HugeIndex()); !errors.Is(err, ErrBadState) {
		t.Errorf("hard reclaim of used area: %v", err)
	}
	if err := a.ReclaimHard(a.Areas()); !errors.Is(err, ErrBadFrame) {
		t.Errorf("hard reclaim out of range: %v", err)
	}
}

func TestReclaimSoftKeepsFrameAllocatable(t *testing.T) {
	a := newAlloc(t, 512) // single area
	host := a.Share()
	if err := host.ReclaimSoft(0); err != nil {
		t.Fatal(err)
	}
	if a.FreeFrames() != 512 {
		t.Errorf("soft reclaim changed free count: %d", a.FreeFrames())
	}
	f, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Evicted {
		t.Error("allocation from soft-reclaimed area not flagged evicted")
	}
	host.ClearEvicted(0) // the install path
	f2, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Evicted {
		t.Error("allocation after install still flagged evicted")
	}
}

func TestReturnHuge(t *testing.T) {
	a := newAlloc(t, testFrames)
	host := a.Share()
	if err := host.ReclaimHard(0); err != nil {
		t.Fatal(err)
	}
	if err := host.ReturnHuge(0); err != nil {
		t.Fatal(err)
	}
	st := a.AreaState(0)
	if st.HugeAllocated || !st.Evicted || st.Free != 512 {
		t.Errorf("state after return: %+v", st)
	}
	if a.FreeFrames() != testFrames {
		t.Errorf("FreeFrames = %d", a.FreeFrames())
	}
	// Returning a frame that is not hard-reclaimed fails.
	if err := host.ReturnHuge(0); !errors.Is(err, ErrBadState) {
		t.Errorf("double return: %v", err)
	}
	if err := host.ReturnHuge(a.Areas() + 7); !errors.Is(err, ErrBadFrame) {
		t.Errorf("return out of range: %v", err)
	}
}

func TestEvictionPreference(t *testing.T) {
	// With one evicted and many non-evicted free areas, the allocator must
	// pick non-evicted frames first (Sec. 3.2 allocation policy).
	a := newAlloc(t, testFrames)
	host := a.Share()
	const evictedArea = 5
	if err := host.ReclaimSoft(evictedArea); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		f, err := a.Get(0, mem.HugeOrder, mem.Huge)
		if err != nil {
			t.Fatal(err)
		}
		if f.PFN.HugeIndex() == evictedArea {
			t.Fatalf("allocation %d picked the evicted area despite alternatives", i)
		}
	}
}

func TestEvictedAreaUsedAsLastResort(t *testing.T) {
	a := newAlloc(t, 2*512) // two areas
	host := a.Share()
	if err := host.ReclaimSoft(1); err != nil {
		t.Fatal(err)
	}
	// First huge allocation takes area 0; the second must fall back to the
	// evicted area 1 and report it.
	f0, err := a.Get(0, mem.HugeOrder, mem.Huge)
	if err != nil {
		t.Fatal(err)
	}
	if f0.Evicted {
		t.Error("area 0 reported evicted")
	}
	f1, err := a.Get(0, mem.HugeOrder, mem.Huge)
	if err != nil {
		t.Fatal(err)
	}
	if f1.PFN.HugeIndex() != 1 || !f1.Evicted {
		t.Errorf("fallback allocation = %+v, want evicted area 1", f1)
	}
}

func TestScanFreeHuge(t *testing.T) {
	a := newAlloc(t, testFrames)
	host := a.Share()
	// Evict two areas, allocate one, leave the rest free.
	if err := host.ReclaimHard(0); err != nil {
		t.Fatal(err)
	}
	if err := host.ReclaimSoft(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get(0, mem.HugeOrder, mem.Huge); err != nil {
		t.Fatal(err)
	}
	var found []uint64
	host.ScanFreeHuge(func(area uint64) bool {
		found = append(found, area)
		return true
	})
	want := a.Areas() - 3 // minus hard-reclaimed, soft-reclaimed, allocated
	if uint64(len(found)) != want {
		t.Errorf("scan found %d candidates, want %d", len(found), want)
	}
	for _, area := range found {
		if area == 0 || area == 1 {
			t.Errorf("scan returned evicted area %d", area)
		}
	}
	// Early stop.
	calls := 0
	host.ScanFreeHuge(func(uint64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("scan ignored early stop: %d calls", calls)
	}
}

func TestReclaimAllThenReturnAll(t *testing.T) {
	// The inflate benchmark's core loop: shrink 20 GiB -> 2 GiB -> 20 GiB.
	a := newAlloc(t, testFrames)
	host := a.Share()
	var reclaimed []uint64
	host.ScanFreeHuge(func(area uint64) bool {
		if err := host.ReclaimHard(area); err == nil {
			reclaimed = append(reclaimed, area)
		}
		return true
	})
	if uint64(len(reclaimed)) != a.Areas() {
		t.Fatalf("reclaimed %d of %d areas", len(reclaimed), a.Areas())
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d after full reclaim", a.FreeFrames())
	}
	if _, err := a.Get(0, 0, mem.Movable); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("guest allocated from fully reclaimed VM: %v", err)
	}
	for _, area := range reclaimed {
		if err := host.ReturnHuge(area); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeFrames() != testFrames {
		t.Fatalf("FreeFrames = %d after return", a.FreeFrames())
	}
	f, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Evicted {
		t.Error("allocation after return not flagged evicted")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUsedBytesMetrics(t *testing.T) {
	a := newAlloc(t, testFrames)
	if a.UsedBaseBytes() != 0 || a.UsedHugeBytes() != 0 {
		t.Fatal("fresh allocator reports usage")
	}
	// One base frame: 4 KiB small, 2 MiB huge footprint.
	f, err := a.Get(0, 0, mem.Movable)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.UsedBaseBytes(); got != mem.PageSize {
		t.Errorf("UsedBaseBytes = %d", got)
	}
	if got := a.UsedHugeBytes(); got != mem.HugeSize {
		t.Errorf("UsedHugeBytes = %d", got)
	}
	if r := a.FragmentationRatio(); r != 512 {
		t.Errorf("FragmentationRatio = %v, want 512", r)
	}
	if err := a.Put(0, f.PFN, 0); err != nil {
		t.Fatal(err)
	}
	// Hard-reclaimed frames do not count as guest usage.
	if err := a.ReclaimHard(0); err != nil {
		t.Fatal(err)
	}
	if a.UsedBaseBytes() != 0 || a.UsedHugeBytes() != 0 {
		t.Error("hard-reclaimed area counted as used")
	}
}

func TestEvictedCount(t *testing.T) {
	a := newAlloc(t, testFrames)
	for i := uint64(0); i < 5; i++ {
		if err := a.ReclaimSoft(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.EvictedCount(); got != 5 {
		t.Errorf("EvictedCount = %d", got)
	}
	if got := a.FreeHugeCount(); got != a.Areas() {
		t.Errorf("FreeHugeCount = %d", got)
	}
	if got := a.FreeHugeNonEvicted(); got != a.Areas()-5 {
		t.Errorf("FreeHugeNonEvicted = %d", got)
	}
}

// maskAreas lists, in ascending order, the areas whose FreeHugeMask bit
// is set, over every mask word and one word beyond the allocator.
func maskAreas(a *Alloc) []uint64 {
	var areas []uint64
	for w := uint64(0); w <= a.FreeHugeWords(); w++ {
		for m := a.FreeHugeMask(w); m != 0; m &= m - 1 {
			areas = append(areas, w*64+uint64(bits.TrailingZeros64(m)))
		}
	}
	return areas
}

func scanAreas(a *Alloc) []uint64 {
	var areas []uint64
	a.ScanFreeHuge(func(area uint64) bool {
		areas = append(areas, area)
		return true
	})
	return areas
}

// TestFreeHugeMaskMatchesScan pins the word-wise mask to ScanFreeHuge on
// every entry shape the SWAR lane test must reject: hard-reclaimed
// (counter 0, A and E), returned (counter 512 with E), soft-reclaimed,
// huge-allocated and partly allocated areas, plus a partial tail area in
// the last mask word.
func TestFreeHugeMaskMatchesScan(t *testing.T) {
	const frames = 130*512 + 200 // three mask words, partial tail area 130
	a := newAlloc(t, frames)
	host := a.Share()
	check := func(what string) {
		t.Helper()
		if got, want := maskAreas(host), scanAreas(host); !slices.Equal(got, want) {
			t.Fatalf("%s: mask areas %v, scan %v", what, got, want)
		}
	}
	check("fresh")
	for _, area := range []uint64{0, 63, 64, 127} {
		if err := host.ReclaimHard(area); err != nil {
			t.Fatal(err)
		}
	}
	check("hard-reclaimed")
	if err := host.ReturnHuge(63); err != nil {
		t.Fatal(err)
	}
	if s := host.AreaState(63); s.Free != 512 || !s.Evicted || s.HugeAllocated {
		t.Fatalf("returned area state %+v, want counter 512 with E", s)
	}
	check("returned")
	if err := host.ReclaimSoft(5); err != nil {
		t.Fatal(err)
	}
	check("soft-reclaimed")
	if _, err := a.Get(0, mem.HugeOrder, mem.Huge); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get(0, 0, mem.Movable); err != nil {
		t.Fatal(err)
	}
	check("allocated")
	host.ClearEvicted(63)
	check("cleared")
	if host.FreeHugeMask(2)&(1<<2) != 0 {
		t.Fatal("partial tail area 130 in the mask")
	}
	if got := host.FreeHugeMask(3); got != 0 {
		t.Fatalf("mask beyond the allocator = %#x", got)
	}
}
