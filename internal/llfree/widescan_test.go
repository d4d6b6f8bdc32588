package llfree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hyperalloc/internal/mem"
)

// refAreaScan recomputes every word-wise aggregation with the one-load-
// per-area reference the word-wise scans replaced.
type refAreaScan struct {
	freeHuge, evicted, usedHuge, usedBase uint64
	scanOrder                             []uint64
}

func refScan(a *Alloc) refAreaScan {
	var r refAreaScan
	for area := uint64(0); area < a.areas; area++ {
		e := a.areaLoad(area)
		if a.fullAreaFree(e, area) {
			r.freeHuge++
			if !areaEvicted(e) {
				r.scanOrder = append(r.scanOrder, area)
			}
		}
		if areaEvicted(e) {
			r.evicted++
		}
		if !(areaHuge(e) && areaEvicted(e)) && (areaHuge(e) || uint64(areaFree(e)) < a.tailFrames(area)) {
			r.usedHuge++
		}
		if areaHuge(e) {
			if !areaEvicted(e) {
				r.usedBase += 512
			}
		} else {
			r.usedBase += a.tailFrames(area) - uint64(areaFree(e))
		}
	}
	return r
}

// TestAreaScanEquivalence pins the word-wise area aggregations (four
// entries per atomic load) to the per-area reference over randomized
// allocator states, including a partial tail area and evicted hints.
func TestAreaScanEquivalence(t *testing.T) {
	const frames = 37*512 + 300 // odd area count + partial tail
	a, err := New(Config{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var base []mem.PFN
	var huge []mem.PFN
	for step := 0; step < 3000; step++ {
		switch rng.Intn(7) {
		case 0, 1, 2:
			if f, err := a.Get(0, 0, mem.Movable); err == nil {
				base = append(base, f.PFN)
			}
		case 3:
			if len(base) > 0 {
				i := rng.Intn(len(base))
				if err := a.Put(0, base[i], 0); err != nil {
					t.Fatal(err)
				}
				base[i] = base[len(base)-1]
				base = base[:len(base)-1]
			}
		case 4:
			if f, err := a.Get(0, mem.HugeOrder, mem.Huge); err == nil {
				huge = append(huge, f.PFN)
			}
		case 5:
			if len(huge) > 0 {
				i := rng.Intn(len(huge))
				if err := a.Put(0, huge[i], mem.HugeOrder); err != nil {
					t.Fatal(err)
				}
				huge[i] = huge[len(huge)-1]
				huge = huge[:len(huge)-1]
			}
		case 6:
			area := uint64(rng.Intn(37))
			if rng.Intn(2) == 0 {
				a.SetEvicted(area)
			} else {
				a.ClearEvicted(area)
			}
		}
		if step%100 != 0 {
			continue
		}
		want := refScan(a)
		if got := a.FreeHugeCount(); got != want.freeHuge {
			t.Fatalf("step %d: FreeHugeCount=%d, reference %d", step, got, want.freeHuge)
		}
		if got := a.EvictedCount(); got != want.evicted {
			t.Fatalf("step %d: EvictedCount=%d, reference %d", step, got, want.evicted)
		}
		if got := a.UsedHugeBytes(); got != want.usedHuge*mem.HugeSize {
			t.Fatalf("step %d: UsedHugeBytes=%d, reference %d", step, got, want.usedHuge*mem.HugeSize)
		}
		if got := a.UsedBaseBytes(); got != want.usedBase*mem.PageSize {
			t.Fatalf("step %d: UsedBaseBytes=%d, reference %d", step, got, want.usedBase*mem.PageSize)
		}
		var order []uint64
		a.ScanFreeHuge(func(area uint64) bool {
			order = append(order, area)
			return true
		})
		if len(order) != len(want.scanOrder) {
			t.Fatalf("step %d: ScanFreeHuge found %d areas, reference %d", step, len(order), len(want.scanOrder))
		}
		for i := range order {
			if order[i] != want.scanOrder[i] {
				t.Fatalf("step %d: ScanFreeHuge order diverged at %d: %d vs %d", step, i, order[i], want.scanOrder[i])
			}
		}
		if got := maskAreas(a); !slices.Equal(got, want.scanOrder) {
			t.Fatalf("step %d: FreeHugeMask areas %v, reference %v", step, got, want.scanOrder)
		}
		if got := a.FreeHugeNonEvicted(); got != uint64(len(want.scanOrder)) {
			t.Fatalf("step %d: FreeHugeNonEvicted=%d, reference %d", step, got, len(want.scanOrder))
		}
	}
	// Early stop must hold too.
	var first []uint64
	a.ScanFreeHuge(func(area uint64) bool {
		first = append(first, area)
		return len(first) < 2
	})
	if len(first) > 2 {
		t.Fatalf("ScanFreeHuge ignored early stop: %v", first)
	}
}

// TestMultiWordClaimStress exercises the 4-word-stride claim path and the
// word-wise area scans under concurrency (run with -race via `make race`):
// allocator churn on orders 0..2 while other goroutines aggregate stats.
func TestMultiWordClaimStress(t *testing.T) {
	const cpus = 4
	a, err := New(Config{Frames: 64 * 512, CPUs: cpus})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fill most of the tree so claims scan mostly-full words — the
	// stride's skip path.
	var warm []mem.PFN
	for {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			break
		}
		warm = append(warm, f.PFN)
		if len(warm) >= 60*512 {
			break
		}
	}
	var churners, readers sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < cpus; c++ {
		churners.Add(1)
		go func(cpu int) {
			defer churners.Done()
			rng := rand.New(rand.NewSource(int64(cpu)))
			held := make(map[mem.Order][]mem.PFN)
			for i := 0; i < 3000; i++ {
				order := mem.Order(rng.Intn(3))
				if f, err := a.Get(cpu, order, mem.Movable); err == nil {
					held[order] = append(held[order], f.PFN)
				}
				if pfns := held[order]; len(pfns) > 32 {
					if err := a.Put(cpu, pfns[0], order); err != nil {
						panic(err)
					}
					held[order] = pfns[1:]
				}
			}
			for order, pfns := range held {
				for _, p := range pfns {
					if err := a.Put(cpu, p, order); err != nil {
						panic(err)
					}
				}
			}
		}(c)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = a.FreeHugeCount()
			_ = a.UsedBaseBytes()
			_ = a.EvictedCount()
			a.ScanFreeHuge(func(uint64) bool { return true })
		}
	}()
	churners.Wait()
	close(stop)
	readers.Wait()
	for _, p := range warm {
		if err := a.Put(0, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
