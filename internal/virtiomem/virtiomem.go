// Package virtiomem implements virtio-mem memory hot(un)plug (Hildenbrand
// and Schulz, VEE '21): the VM's hotpluggable memory lives in a Movable
// zone and is plugged/unplugged in 2 MiB blocks. Unplugging proceeds in
// decreasing address order and migrates used subblocks away first (the
// guest-side compaction that causes the Fig. 5 trough). DMA safety is
// achieved by prepopulating and pinning every plugged block when a VFIO
// device is attached — which makes growing 21x slower (Sec. 5.3).
//
// virtio-mem has no automatic reclamation; like the paper we simulate one
// for the comparison benchmarks (Sec. 5.5): track the guest's free huge
// pages and (un)plug with 1 GiB granularity at 1 Hz.
package virtiomem

import (
	"errors"
	"fmt"

	"hyperalloc/internal/buddy"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/vmm"
)

// ErrInsufficient reports that unplugging could not reach the target.
var ErrInsufficient = errors.New("virtiomem: not enough unpluggable memory")

// Config parameterizes the device.
type Config struct {
	// SimulatedAuto enables the hand-tuned automatic mode of Sec. 5.5.
	SimulatedAuto bool
	// AutoGranularity is the (un)plug step of the simulated auto mode
	// (default 1 GiB).
	AutoGranularity uint64
	// AutoPeriod is the polling period of the simulated auto mode
	// (default 1 s).
	AutoPeriod sim.Duration
	// AutoHeadroomHuge is the number of free huge pages the auto policy
	// keeps available to absorb bursts without OOM (default 768 = 1.5 GiB).
	AutoHeadroomHuge uint64
}

// Counters are the device's experiment counters.
type Counters struct {
	Plugs            uint64 `json:",omitempty"`
	Unplugs          uint64 `json:",omitempty"`
	MigratedBytes    uint64 `json:",omitempty"`
	SkippedUnplugs   uint64 `json:",omitempty"`
	AutoTicks        uint64 `json:",omitempty"`
	PrepopulatedHuge uint64 `json:",omitempty"`
}

// Mechanism is the virtio-mem device + driver pair of one VM.
type Mechanism struct {
	vm      *vmm.VM
	cfg     Config
	movable *guest.Zone
	b       *buddy.Alloc
	// plugged[i] reports whether movable-zone area i is currently plugged.
	plugged []bool
	limit   uint64

	Counters

	// track is the "<vm>/mech" trace track (nil when tracing is off).
	track *trace.Track
}

// New attaches virtio-mem to a VM. The guest must have a Movable zone
// backed by the buddy allocator; that zone is the hotpluggable memory and
// starts fully plugged.
func New(vm *vmm.VM, cfg Config) (*Mechanism, error) {
	if cfg.AutoGranularity == 0 {
		cfg.AutoGranularity = mem.GiB
	}
	if cfg.AutoPeriod == 0 {
		cfg.AutoPeriod = sim.Second
	}
	if cfg.AutoHeadroomHuge == 0 {
		cfg.AutoHeadroomHuge = 768
	}
	var movable *guest.Zone
	for _, z := range vm.Guest.Zones() {
		if z.Kind == mem.ZoneMovable {
			movable = z
		}
	}
	if movable == nil {
		return nil, fmt.Errorf("virtiomem: guest has no movable zone")
	}
	b, ok := movable.Impl.(*buddy.Alloc)
	if !ok {
		return nil, fmt.Errorf("virtiomem: movable zone is not buddy-backed")
	}
	m := &Mechanism{
		vm:      vm,
		cfg:     cfg,
		movable: movable,
		b:       b,
		plugged: make([]bool, b.Areas()),
		limit:   vm.InitialBytes,
	}
	for i := range m.plugged {
		m.plugged[i] = true
	}
	if vm.Trace != nil {
		m.track = vm.TraceTrack("mech")
	}
	vm.SetMechanism(m)
	return m, nil
}

// Name implements vmm.Mechanism.
func (m *Mechanism) Name() string {
	if m.vm.IOMMU != nil {
		return "virtio-mem+VFIO"
	}
	return "virtio-mem"
}

// Properties implements vmm.Mechanism (Table 1 row).
func (m *Mechanism) Properties() vmm.Properties {
	return vmm.Properties{
		Granularity: mem.HugeSize,
		ManualLimit: true,
		AutoMode:    false, // the simulated auto mode is not part of virtio-mem
		DMASafe:     true,
	}
}

// Limit implements vmm.Mechanism.
func (m *Mechanism) Limit() uint64 { return m.limit }

// SetAutoPeriod implements vmm.AutoTuner: the polling period of the
// simulated auto mode.
func (m *Mechanism) SetAutoPeriod(d sim.Duration) { m.cfg.AutoPeriod = d }

// Shrink implements vmm.Mechanism: unplug movable-zone blocks in
// decreasing address order until the limit reaches target. Blocks with
// used subblocks are evacuated by page migration first; blocks that
// cannot be evacuated are skipped.
func (m *Mechanism) Shrink(target uint64) error {
	if m.limit <= target {
		return nil
	}
	if m.track.Enabled() {
		m.track.Begin("shrink", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	m.vm.Guest.DrainAllocatorCaches()
	for area := int64(len(m.plugged)) - 1; area >= 0 && m.limit > target; area-- {
		if !m.plugged[area] {
			continue
		}
		if m.unplugArea(uint64(area)) {
			m.limit -= mem.HugeSize
		}
	}
	if m.limit > target {
		return fmt.Errorf("%w: stuck at %s above target %s", ErrInsufficient,
			mem.HumanBytes(m.limit), mem.HumanBytes(target))
	}
	return nil
}

// unplugArea isolates, evacuates, offlines, and unplugs one movable-zone
// area (Linux's offline_pages sequence).
func (m *Mechanism) unplugArea(area uint64) bool {
	model := m.vm.Model
	if err := m.b.IsolateArea(area); err != nil {
		// Pages of this area are parked in per-CPU caches: drain and retry
		// once.
		m.vm.Guest.DrainAllocatorCaches()
		if err := m.b.IsolateArea(area); err != nil {
			m.SkippedUnplugs++
			return false
		}
	}
	abort := func() bool {
		if err := m.b.UnisolateArea(area, mem.Movable); err != nil {
			panic("virtiomem: " + err.Error())
		}
		m.SkippedUnplugs++
		return false
	}
	used, err := m.b.UsedBlocksIn(area)
	if err != nil {
		return abort()
	}
	if !m.migrateOut(area, used) {
		return abort()
	}
	if err := m.b.OfflineArea(area); err != nil {
		return abort()
	}
	m.plugged[area] = false
	m.Unplugs++
	gArea := vmm.ZoneArea(m.movable, area)
	cost := model.HotunplugBlock
	if m.vm.EPT.AreaMapped(gArea) > 0 {
		// Touched memory must be discarded on the host.
		m.vm.DiscardArea(gArea)
		cost += model.Syscall + model.EPTUnmapHuge + model.TLBInvalidation
		m.vm.Meter.Stall(ledger.StallCPU, model.StallPerUnmapSyscall)
	}
	if m.vm.IOMMU != nil {
		// Plugged memory is always pinned under VFIO; unplugging must
		// unmap and flush regardless of whether it was touched.
		if _, err := m.vm.IOMMU.UnmapHuge(gArea); err != nil {
			panic("virtiomem: " + err.Error())
		}
		cost += model.IOMMUUnmapHuge + model.IOTLBFlush
	}
	m.vm.Meter.Work(ledger.Host, cost)
	return true
}

// migrateOut relocates the used blocks of an area. Returns false when a
// block has no migration destination.
func (m *Mechanism) migrateOut(area uint64, used []buddy.FreeBlock) bool {
	model := m.vm.Model
	for _, blk := range used {
		if !m.b.BlockUsed(blk.PFN, blk.Order) {
			continue // freed meanwhile (reclaim triggered by a migration)
		}
		if _, _, err := m.vm.Guest.MigrateBlock(0, m.movable, blk.PFN, blk.Order); err != nil {
			if errors.Is(err, guest.ErrMigrateGone) {
				continue // reclaimed while migrating; nothing left to move
			}
			return false
		}
		bytes := blk.Order.Size()
		m.MigratedBytes += bytes
		// Guest-side compaction: copy cost plus the zone-lock/unmap stalls
		// that hit every vCPU.
		m.vm.Meter.Work(ledger.Guest, model.MigrateCost(bytes))
		m.vm.Meter.Stall(ledger.StallMem, sim.Duration(blk.Order.Frames())*model.StallPerMigratedFrame)
		m.vm.Meter.Bus(2 * bytes)
	}
	return true
}

// Grow implements vmm.Mechanism: plug blocks in increasing address order.
// One request per 2 MiB block (virtio-mem "makes hypercalls for every
// plugged 2 MiB block"); with VFIO each block is prepopulated and pinned
// immediately for DMA safety.
func (m *Mechanism) Grow(target uint64) error {
	if m.track.Enabled() {
		m.track.Begin("grow", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	model := m.vm.Model
	for area := range m.plugged {
		if m.limit >= target {
			break
		}
		if m.plugged[area] {
			continue
		}
		if err := m.b.OnlineArea(uint64(area), mem.Movable); err != nil {
			panic("virtiomem: " + err.Error())
		}
		m.plugged[area] = true
		m.Plugs++
		m.limit += mem.HugeSize
		cost := model.HotplugBlock
		if m.vm.IOMMU != nil {
			gArea := vmm.ZoneArea(m.movable, uint64(area))
			newly := m.vm.PopulateArea(gArea)
			if _, err := m.vm.IOMMU.MapHuge(gArea); err != nil {
				panic("virtiomem: " + err.Error())
			}
			cost += model.PopulateCost(newly*mem.PageSize) + model.PinHuge + model.IOMMUMapHuge
			m.vm.Meter.Bus(newly * mem.PageSize)
			m.vm.Meter.Stall(ledger.StallMem, model.StallPerPrepopulateBlock)
			m.PrepopulatedHuge++
		}
		m.vm.Meter.Work(ledger.Host, cost)
	}
	return nil
}

// AutoTick implements vmm.Mechanism. Plain virtio-mem has no automatic
// mode; when SimulatedAuto is enabled this runs the Sec. 5.5 simulation:
// track free huge pages and (un)plug 1 GiB steps to keep the headroom in
// a band around AutoHeadroomHuge.
func (m *Mechanism) AutoTick() sim.Duration {
	if !m.cfg.SimulatedAuto {
		return 0
	}
	m.AutoTicks++
	if m.track.Enabled() {
		m.track.Begin("auto_tick")
		defer m.track.End()
	}
	freeHuge := m.freeHugeBlocks()
	head := m.cfg.AutoHeadroomHuge
	step := m.cfg.AutoGranularity
	switch {
	case freeHuge > 2*head && m.limit > step:
		// Plenty of free huge pages: shrink one step. Partial progress is
		// fine; huge-page availability limits it like the paper notes.
		_ = m.Shrink(m.limit - step)
	case freeHuge < head/2 && m.limit < m.vm.InitialBytes:
		target := m.limit + step
		if target > m.vm.InitialBytes {
			target = m.vm.InitialBytes
		}
		_ = m.Grow(target)
	}
	return m.cfg.AutoPeriod
}

// freeHugeBlocks returns the guest's free-huge-page supply across zones
// (what the simulated policy tracks).
func (m *Mechanism) freeHugeBlocks() uint64 {
	var n uint64
	for _, z := range m.vm.Guest.Zones() {
		if b, ok := z.Impl.(*buddy.Alloc); ok {
			n += b.FreeHugeBlocks()
		}
	}
	return n
}

// PluggedBytes returns the currently plugged hotpluggable memory.
func (m *Mechanism) PluggedBytes() uint64 {
	var n uint64
	for _, p := range m.plugged {
		if p {
			n += mem.HugeSize
		}
	}
	return n
}
