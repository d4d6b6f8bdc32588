package cluster

import (
	"math/rand"
	"testing"

	"hyperalloc"
	"hyperalloc/internal/ept"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/vmm"
)

// refZoneReclaimable is the per-area formula the word-level scan
// replaced: every area ScanFreeHuge reports, weighted by its EPT mapped
// count.
func refZoneReclaimable(t *ept.Table, a *llfree.Alloc, base uint64) uint64 {
	var frames uint64
	a.ScanFreeHuge(func(area uint64) bool {
		frames += t.AreaMapped(base + area)
		return true
	})
	return frames
}

// TestZoneReclaimableEquivalence pins zoneReclaimable to the reference
// after every step of a seeded random mix of EPT map/unmap (huge, base
// and range forms), LLFree get/put and host transitions, on a zone whose
// base area is not 64-aligned and whose last area is partial, with
// periodic EPT State/RestoreState round trips into fresh and live tables.
func TestZoneReclaimableEquivalence(t *testing.T) {
	const (
		base       = 37            // zone base area, not a multiple of 64
		zoneFrames = 150*512 + 300 // three mask words, partial tail area
	)
	a, err := llfree.New(llfree.Config{Frames: zoneFrames})
	if err != nil {
		t.Fatal(err)
	}
	host := a.Share()
	// The table extends past the zone on both sides, like a VM's EPT.
	tb := ept.New((base+160)*mem.FramesPerHuge + 77)
	rng := rand.New(rand.NewSource(12))
	tableArea := func() uint64 { return uint64(rng.Int63n(int64(tb.Areas()))) }
	tablePFN := func() mem.PFN { return mem.PFN(rng.Int63n(int64(tb.Frames()))) }
	zoneArea := func() uint64 { return uint64(rng.Int63n(int64(a.Areas()))) }
	var small, huge []mem.PFN
	var hard []uint64
	var saved *ept.TableState
	nonZero := 0
	for step := 0; step < 6000; step++ {
		var err error
		switch rng.Intn(14) {
		case 0, 1:
			_, err = tb.MapHuge(tableArea())
		case 2:
			_, err = tb.UnmapHuge(tableArea())
		case 3:
			_, err = tb.MapBase(tablePFN())
		case 4:
			_, err = tb.UnmapBase(tablePFN())
		case 5:
			p := tablePFN()
			_, err = tb.MapRange(p, uint64(rng.Int63n(int64(tb.Frames()-uint64(p))))%1500+1)
		case 6:
			p := tablePFN()
			_, err = tb.UnmapRange(p, uint64(rng.Int63n(int64(tb.Frames()-uint64(p))))%1500+1, nil)
		case 7:
			if f, gerr := a.Get(0, 0, mem.Movable); gerr == nil {
				small = append(small, f.PFN)
			}
		case 8:
			if len(small) > 0 {
				i := rng.Intn(len(small))
				err = a.Put(0, small[i], 0)
				small[i] = small[len(small)-1]
				small = small[:len(small)-1]
			}
		case 9:
			if f, gerr := a.Get(0, mem.HugeOrder, mem.Huge); gerr == nil {
				huge = append(huge, f.PFN)
			}
		case 10:
			if len(huge) > 0 {
				i := rng.Intn(len(huge))
				err = a.Put(0, huge[i], mem.HugeOrder)
				huge[i] = huge[len(huge)-1]
				huge = huge[:len(huge)-1]
			}
		case 11:
			// Fails harmlessly on areas that are not fully free.
			_ = host.ReclaimSoft(zoneArea())
		case 12:
			if area := zoneArea(); host.ReclaimHard(area) == nil {
				hard = append(hard, area)
			}
		case 13:
			if len(hard) > 0 && rng.Intn(2) == 0 {
				err = host.ReturnHuge(hard[len(hard)-1])
				hard = hard[:len(hard)-1]
			} else {
				host.ClearEvicted(zoneArea())
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%400 == 399 {
			st := tb.State()
			if saved != nil {
				// Rewind the live table to an older checkpoint: no populated
				// bit of the newer state may survive the restore.
				if err := tb.RestoreState(saved); err != nil {
					t.Fatalf("step %d: rewind: %v", step, err)
				}
				if got, want := zoneReclaimable(tb, host, base), refZoneReclaimable(tb, host, base); got != want {
					t.Fatalf("step %d: rewound: zoneReclaimable=%d, reference %d", step, got, want)
				}
			}
			restored := ept.New(tb.Frames())
			if err := restored.RestoreState(st); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			tb, saved = restored, st
		}
		if err := tb.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, want := zoneReclaimable(tb, host, base), refZoneReclaimable(tb, host, base)
		if got != want {
			t.Fatalf("step %d: zoneReclaimable=%d, reference %d", step, got, want)
		}
		if got > 0 {
			nonZero++
		}
	}
	if nonZero < 1000 {
		t.Fatalf("only %d steps with reclaimable frames: the mix does not exercise the scan", nonZero)
	}
}

// TestReclaimableBytesMatchesReference checks the VM-level wiring (zone
// bases via vmm.ZoneArea, the LLFree zones only) on a real HyperAlloc VM
// whose Normal zone ends in a partial area, across guest allocations,
// frees and memory-limit changes.
func TestReclaimableBytesMatchesReference(t *testing.T) {
	sys := hyperalloc.NewSystem(3)
	vm, err := sys.NewVM(hyperalloc.Options{Memory: 2*mem.GiB + 300*mem.MiB + 12*mem.KiB, CPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := func() uint64 {
		var frames uint64
		for _, z := range vm.Guest.Zones() {
			adapter := z.Impl.(*guest.LLFreeAdapter)
			frames += refZoneReclaimable(vm.EPT, adapter.A, vmm.ZoneArea(z, 0))
		}
		return frames * mem.PageSize
	}
	rng := rand.New(rand.NewSource(4))
	var regions []*guest.Region
	nonZero := 0
	for step := 0; step < 200; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			if r, err := vm.Guest.AllocAnon(rng.Intn(2), uint64(rng.Intn(96)+1)*mem.MiB+uint64(rng.Intn(512))*mem.PageSize); err == nil {
				regions = append(regions, r)
			}
		case 2:
			if len(regions) > 0 {
				i := rng.Intn(len(regions))
				regions[i].Free()
				regions[i] = regions[len(regions)-1]
				regions = regions[:len(regions)-1]
			}
		case 3:
			// Errors (a limit below current use) leave the VM as it was.
			_ = vm.SetMemLimit(uint64(rng.Intn(8)+3) * 256 * mem.MiB)
		}
		got, want := ReclaimableBytes(vm), ref()
		if got != want {
			t.Fatalf("step %d: ReclaimableBytes=%d, reference %d", step, got, want)
		}
		if got > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no step had reclaimable bytes")
	}
}

// BenchmarkReclaimableBytes guards the scorer's per-call cost on a 3 GiB
// HyperAlloc VM whose guest touched half its memory and then freed it:
// half the areas are EPT-populated and free in the guest, the case
// placement scores for every resident VM of every candidate host.
func BenchmarkReclaimableBytes(b *testing.B) {
	sys := hyperalloc.NewSystem(1)
	vm, err := sys.NewVM(hyperalloc.Options{Memory: 3 * mem.GiB, CPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := vm.Guest.AllocAnon(0, 3*mem.GiB/2)
	if err != nil {
		b.Fatal(err)
	}
	r.Free()
	want := ReclaimableBytes(vm)
	if want < mem.GiB {
		b.Fatalf("ReclaimableBytes = %d, want the freed 1.5 GiB", want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ReclaimableBytes(vm) != want {
			b.Fatal("ReclaimableBytes changed")
		}
	}
}
