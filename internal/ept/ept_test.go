package ept

import (
	"testing"
	"testing/quick"

	"hyperalloc/internal/mem"
)

const frames = 4 * mem.FramesPerHuge

func TestNewEmpty(t *testing.T) {
	tb := New(frames)
	if tb.Frames() != frames || tb.Areas() != 4 {
		t.Fatalf("geometry: %d frames, %d areas", tb.Frames(), tb.Areas())
	}
	if tb.MappedBytes() != 0 {
		t.Error("fresh table has mappings")
	}
	if tb.IsMapped(0) {
		t.Error("frame 0 mapped")
	}
}

func TestMapUnmapHuge(t *testing.T) {
	tb := New(frames)
	newly, err := tb.MapHuge(1)
	if err != nil || newly != mem.FramesPerHuge {
		t.Fatalf("MapHuge: %d, %v", newly, err)
	}
	if !tb.AreaFullyMapped(1) || tb.AreaMapped(1) != mem.FramesPerHuge {
		t.Error("area not fully mapped")
	}
	if !tb.IsMapped(mem.FramesPerHuge) || tb.IsMapped(0) {
		t.Error("IsMapped wrong")
	}
	// Idempotent: remapping maps nothing new.
	newly, err = tb.MapHuge(1)
	if err != nil || newly != 0 {
		t.Errorf("second MapHuge: %d, %v", newly, err)
	}
	was, err := tb.UnmapHuge(1)
	if err != nil || was != mem.FramesPerHuge {
		t.Fatalf("UnmapHuge: %d, %v", was, err)
	}
	if tb.MappedBytes() != 0 {
		t.Error("bytes remain after unmap")
	}
	if _, err := tb.MapHuge(99); err == nil {
		t.Error("out-of-range MapHuge accepted")
	}
	if _, err := tb.UnmapHuge(99); err == nil {
		t.Error("out-of-range UnmapHuge accepted")
	}
}

func TestBaseMappings(t *testing.T) {
	tb := New(frames)
	ok, err := tb.MapBase(5)
	if err != nil || !ok {
		t.Fatalf("MapBase: %v %v", ok, err)
	}
	if ok, _ := tb.MapBase(5); ok {
		t.Error("double map reported newly")
	}
	if tb.AreaMapped(0) != 1 {
		t.Errorf("AreaMapped = %d", tb.AreaMapped(0))
	}
	was, err := tb.UnmapBase(5)
	if err != nil || !was {
		t.Fatalf("UnmapBase: %v %v", was, err)
	}
	if was, _ := tb.UnmapBase(5); was {
		t.Error("double unmap reported mapped")
	}
	if _, err := tb.MapBase(mem.PFN(frames)); err == nil {
		t.Error("out-of-range MapBase accepted")
	}
}

func TestUnmapBaseSplitsHuge(t *testing.T) {
	tb := New(frames)
	if _, err := tb.MapHuge(0); err != nil {
		t.Fatal(err)
	}
	was, err := tb.UnmapBase(3)
	if err != nil || !was {
		t.Fatalf("UnmapBase on huge: %v %v", was, err)
	}
	if tb.AreaMapped(0) != mem.FramesPerHuge-1 {
		t.Errorf("AreaMapped = %d after split", tb.AreaMapped(0))
	}
	if tb.IsMapped(3) || !tb.IsMapped(4) {
		t.Error("split state wrong")
	}
	if !tb.AreaFragmented(0) {
		t.Error("split area not marked fragmented")
	}
	// MapHuge heals the fragmentation.
	if _, err := tb.MapHuge(0); err != nil {
		t.Fatal(err)
	}
	if tb.AreaFragmented(0) {
		t.Error("MapHuge did not clear fragmented")
	}
}

// A no-op unmap — a frame that was never populated — must not mark the
// area fragmented: no hole was punched into the host backing, so a later
// fault may still use one THP. Before the fix, UnmapBase set the flag
// unconditionally.
func TestUnmapBaseNoOpDoesNotFragment(t *testing.T) {
	tb := New(frames)
	// Never-mapped frame in a never-mapped area.
	if was, err := tb.UnmapBase(7); err != nil || was {
		t.Fatalf("UnmapBase: %v %v", was, err)
	}
	if tb.AreaFragmented(0) {
		t.Error("no-op unmap of an empty area marked it fragmented")
	}
	// Never-mapped frame in a partially base-mapped area.
	if _, err := tb.MapBase(5); err != nil {
		t.Fatal(err)
	}
	if was, _ := tb.UnmapBase(7); was {
		t.Fatal("unmapped a frame that was never mapped")
	}
	if tb.AreaFragmented(0) {
		t.Error("no-op unmap of an unmapped frame marked the area fragmented")
	}
	// Removing a frame that IS mapped punches a hole: fragmented.
	if was, _ := tb.UnmapBase(5); !was {
		t.Fatal("mapped frame not unmapped")
	}
	if !tb.AreaFragmented(0) {
		t.Error("real hole punch did not mark the area fragmented")
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tb := New(frames)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MapHuge(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MapBase(3); err != nil {
		t.Fatal(err)
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the global counter: Validate must notice.
	tb.mappedFrames++
	if err := tb.Validate(); err == nil {
		t.Error("corrupted mappedFrames not detected")
	}
	tb.mappedFrames--
	// Corrupt a per-area counter.
	tb.areas[0].mapped++
	if err := tb.Validate(); err == nil {
		t.Error("corrupted area counter not detected")
	}
}

func TestFaultPaths(t *testing.T) {
	tb := New(frames)
	newly, err := tb.Fault(7)
	if err != nil || newly != mem.FramesPerHuge {
		t.Fatalf("Fault: %d %v", newly, err)
	}
	if tb.Faults != 1 {
		t.Errorf("Faults = %d", tb.Faults)
	}
	ok, err := tb.FaultBase(mem.FramesPerHuge + 1)
	if err != nil || !ok {
		t.Fatalf("FaultBase: %v %v", ok, err)
	}
	if tb.Faults != 2 {
		t.Errorf("Faults = %d", tb.Faults)
	}
	if _, err := tb.Fault(mem.PFN(frames)); err == nil {
		t.Error("out-of-range fault accepted")
	}
}

func TestPartialTail(t *testing.T) {
	tb := New(mem.FramesPerHuge + 100) // area 1 has 100 frames
	newly, err := tb.MapHuge(1)
	if err != nil || newly != 100 {
		t.Fatalf("tail MapHuge: %d %v", newly, err)
	}
	if !tb.AreaFullyMapped(1) {
		t.Error("tail area not fully mapped")
	}
	if tb.MappedBytes() != 100*mem.PageSize {
		t.Errorf("MappedBytes = %d", tb.MappedBytes())
	}
}

// Property: any interleaving of map/unmap operations keeps MappedFrames
// equal to the popcount of individually checked frames.
func TestPropertyMappedConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(frames)
		for _, op := range ops {
			p := mem.PFN(op % frames)
			switch op % 4 {
			case 0:
				tb.MapBase(p)
			case 1:
				tb.UnmapBase(p)
			case 2:
				tb.MapHuge(uint64(p) / mem.FramesPerHuge)
			case 3:
				tb.UnmapHuge(uint64(p) / mem.FramesPerHuge)
			}
		}
		var count uint64
		for p := mem.PFN(0); p < frames; p++ {
			if tb.IsMapped(p) {
				count++
			}
		}
		return count == tb.MappedFrames()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPopulatedMask pins the populated-area window at unaligned offsets
// across a word boundary and past the end of the table.
func TestPopulatedMask(t *testing.T) {
	tb := New(130*mem.FramesPerHuge + 9) // 131 areas, partial tail
	for _, area := range []uint64{0, 63, 64, 100, 130} {
		if _, err := tb.MapHuge(area); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.MapBase(mem.PFN(70*mem.FramesPerHuge + 5)); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{0, 1, 37, 63, 64, 99, 127, 130, 131, 500} {
		var want uint64
		for i := uint64(0); i < 64; i++ {
			if tb.AreaMapped(from+i) > 0 {
				want |= 1 << i
			}
		}
		if got := tb.PopulatedMask(from); got != want {
			t.Errorf("PopulatedMask(%d) = %#x, want %#x", from, got, want)
		}
	}
	if _, err := tb.UnmapRange(mem.PFN(60*mem.FramesPerHuge), 11*mem.FramesPerHuge, nil); err != nil {
		t.Fatal(err)
	}
	if got := tb.PopulatedMask(60); got != 1<<40 {
		t.Errorf("after UnmapRange: PopulatedMask(60) = %#x, want area 100 only", got)
	}
}

// TestValidateCatchesPopulatedDrift corrupts the derived populated bitmap
// in every way Validate must report — a missing bit, a stray bit, a bit
// past the last area, a truncated bitmap — and expects a violation, not
// a panic.
func TestValidateCatchesPopulatedDrift(t *testing.T) {
	build := func() *Table {
		tb := New(70*mem.FramesPerHuge + 3) // 71 areas: two bitmap words
		if _, err := tb.MapHuge(2); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.MapBase(mem.PFN(66 * mem.FramesPerHuge)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Validate(); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	for name, corrupt := range map[string]func(*Table){
		"missing":   func(tb *Table) { tb.populated[0] &^= 1 << 2 },
		"stray":     func(tb *Table) { tb.populated[0] |= 1 << 5 },
		"tail-word": func(tb *Table) { tb.populated[1] &^= 1 << 2 },
		"beyond":    func(tb *Table) { tb.populated[1] |= 1 << 7 },
		"truncated": func(tb *Table) { tb.populated = tb.populated[:1] },
		"nil":       func(tb *Table) { tb.populated = nil },
	} {
		tb := build()
		corrupt(tb)
		if err := tb.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt populated bitmap", name)
		}
	}
}
