package core

import (
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
)

// ShrinkCache is the Sec. 6 "logical next step": exposing the page cache
// to HyperAlloc "which could then shrink the VM from the outside". The
// monitor asks the guest to evict `bytes` of page cache (LRU order) and
// immediately soft-reclaims the freed huge frames, so the memory leaves
// the VM's footprint in the same operation.
//
// Returns the number of bytes whose backing was actually reclaimed.
func (m *Mechanism) ShrinkCache(bytes uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	evicted := m.vm.Guest.EvictCache(bytes)
	if evicted == 0 {
		return 0
	}
	// Guest-side eviction work (page-cache walk + frees).
	m.vm.Meter.Work(ledger.Guest, sim.DurationFor(evicted, 20.0))
	m.CacheShrinks++
	rssBefore := m.vm.RSS()
	for _, zs := range m.reclaimOrder() {
		m.reclaimZone(zs, ^uint64(0), SoftReclaimed)
	}
	if rss := m.vm.RSS(); rssBefore > rss {
		return rssBefore - rss
	}
	return 0
}

// TargetFootprint drives the VM toward a target RSS from the outside: it
// first takes free memory via a soft-reclamation pass, then trims page
// cache for the remainder. Anonymous memory is never touched (that would
// need guest swapping). Returns the resulting RSS.
func (m *Mechanism) TargetFootprint(target uint64) uint64 {
	m.mu.Lock()
	rssBefore := m.vm.RSS()
	if rssBefore > target {
		for _, zs := range m.reclaimOrder() {
			m.reclaimZone(zs, ^uint64(0), SoftReclaimed)
		}
	}
	rss := m.vm.RSS()
	m.mu.Unlock()
	if rss > target {
		m.ShrinkCache(rss - target)
		rss = m.vm.RSS()
	}
	return rss
}

// ReclaimableEstimate reports how far the monitor could shrink the VM
// right now without guest cooperation: free huge frames plus the page
// cache (everything except anonymous/kernel data).
func (m *Mechanism) ReclaimableEstimate() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var freeHuge uint64
	for _, zs := range m.zones {
		freeHuge += zs.shared.FreeHugeNonEvicted()
	}
	return freeHuge*mem.HugeSize + m.vm.Guest.CacheBytes()
}
