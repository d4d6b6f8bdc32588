package cluster

import (
	"math/bits"

	"hyperalloc"
	"hyperalloc/internal/ept"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/vmm"
)

// Scorer is the placement brain: it turns a host's raw accounting into
// the committed-memory estimate the bin-packer packs against, and a VM's
// state into the bytes a migration of it would have to move. The two
// implementations differ in exactly one thing — whether they can see the
// guest's shared LLFree allocator state — which is the fleet-scale form
// of the paper's headline claim.
type Scorer interface {
	// Name identifies the scorer in results and traces.
	Name() string
	// UsedBytes estimates the host's committed memory for bin-packing.
	UsedBytes(h *Host) uint64
	// ExpectedTransfer estimates the bytes a migration of vm must move.
	ExpectedTransfer(vm *hyperalloc.VM) uint64
	// BrokerVictim returns the evacuation victim policy the host's
	// broker should use, or nil for the broker default (largest RSS).
	BrokerVictim(h *Host) func([]*vmm.VM) *vmm.VM
}

// NaiveRSS is the baseline scheduler signal: stale resident-set sizes.
// Freed-but-still-mapped guest memory looks committed, so the packer
// keeps hosts artificially "full", wakes parked hosts it does not need,
// and migrations are sized (and victims picked) by RSS alone.
type NaiveRSS struct{}

// Name implements Scorer.
func (NaiveRSS) Name() string { return "naive-rss" }

// UsedBytes implements Scorer: the pool's aggregate RSS, dead pages
// included.
func (NaiveRSS) UsedBytes(h *Host) uint64 { return h.Sys.Pool.Total() }

// ExpectedTransfer implements Scorer: a migration is assumed to move the
// whole resident set.
func (NaiveRSS) ExpectedTransfer(vm *hyperalloc.VM) uint64 { return vm.RSS() }

// BrokerVictim implements Scorer: nil — the broker's default largest-RSS
// policy is exactly the naive-signal choice.
func (NaiveRSS) BrokerVictim(*Host) func([]*vmm.VM) *vmm.VM { return nil }

// AllocatorAware reads each guest's shared LLFree area state at decision
// time (zero guest work, always current — Sec. 4.2): mapped-but-free
// memory is subtracted from the host's committed estimate and from
// expected transfer sizes, because the migration engine's
// hyperalloc-skip strategy will not ship it and the broker can reclaim
// it on demand.
type AllocatorAware struct{}

// Name implements Scorer.
func (AllocatorAware) Name() string { return "allocator-aware" }

// UsedBytes implements Scorer: aggregate RSS minus every resident VM's
// reclaimable (mapped-but-free) bytes.
func (AllocatorAware) UsedBytes(h *Host) uint64 {
	used := h.Sys.Pool.Total()
	for _, vm := range h.vms {
		r := ReclaimableBytes(vm)
		if r >= used {
			return 0
		}
		used -= r
	}
	return used
}

// ExpectedTransfer implements Scorer: the resident set minus what the
// skip strategy provably drops.
func (AllocatorAware) ExpectedTransfer(vm *hyperalloc.VM) uint64 {
	rss := vm.RSS()
	if r := ReclaimableBytes(vm); r < rss {
		return rss - r
	}
	return 0
}

// BrokerVictim implements Scorer: evacuate the smallest expected
// transfer (ties: attach order) — the cheapest VM to move off a
// pressured host, judged by live free-page counts rather than RSS.
func (s AllocatorAware) BrokerVictim(h *Host) func([]*vmm.VM) *vmm.VM {
	return func(cands []*vmm.VM) *vmm.VM {
		var victim *vmm.VM
		var cost uint64
		for _, v := range cands {
			w := h.wrapper(v)
			if w == nil {
				continue // not resident here (should not happen)
			}
			if c := s.ExpectedTransfer(w); victim == nil || c < cost {
				victim, cost = v, c
			}
		}
		return victim
	}
}

// ReclaimableBytes reads the VM's shared LLFree allocator state and
// returns the bytes that are EPT-mapped but entirely free in the guest:
// non-evicted, fully free huge areas that still hold host memory. This
// is what the host could take back at the paper's reclaim rate with zero
// guest work, and what a hyperalloc-skip migration never sends.
// Non-HyperAlloc VMs report 0 — the hypervisor has no window into their
// allocators.
func ReclaimableBytes(vm *hyperalloc.VM) uint64 {
	if vm.HyperAlloc == nil {
		return 0
	}
	var frames uint64
	for _, z := range vm.Guest.Zones() {
		if adapter, ok := z.Impl.(*guest.LLFreeAdapter); ok {
			// Read-only: the guest's handle aliases the same shared words
			// a Share()d monitor handle would, without allocating one.
			frames += zoneReclaimable(vm.EPT, adapter.A, vmm.ZoneArea(z, 0))
		}
	}
	return frames * mem.PageSize
}

// zoneReclaimable returns the EPT-mapped frames of a zone's fully free,
// non-evicted huge areas; base is the zone's first guest-physical area.
// It is a word-level AND of two dense bitmaps, 64 areas per word: the
// EPT's populated-area bitmap and LLFree's free-huge mask, built from its
// packed area entries only where the EPT word is non-zero. Only areas set
// in both are summed, so the cost follows the populated words, not every
// area.
func zoneReclaimable(t *ept.Table, a *llfree.Alloc, base uint64) uint64 {
	var frames uint64
	for w := uint64(0); w < a.FreeHugeWords(); w++ {
		first := base + w*64
		pop := t.PopulatedMask(first)
		if pop == 0 {
			continue
		}
		for m := a.FreeHugeMask(w) & pop; m != 0; m &= m - 1 {
			frames += t.AreaMapped(first + uint64(bits.TrailingZeros64(m)))
		}
	}
	return frames
}
