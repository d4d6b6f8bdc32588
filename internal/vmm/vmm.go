// Package vmm is the virtual-machine monitor (the QEMU analog): it owns a
// VM's guest, EPT, optional IOMMU, host-RSS accounting, and the
// reclamation mechanism, and it provides the populate-on-access and
// resize plumbing all mechanisms share.
package vmm

import (
	"fmt"

	"hyperalloc/internal/buddy"
	"hyperalloc/internal/costmodel"
	"hyperalloc/internal/ept"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/iommu"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
)

// Mechanism is a VM de/inflation technique (virtio-balloon, virtio-mem,
// HyperAlloc). Implementations live in their own packages and are attached
// to a VM at construction time.
type Mechanism interface {
	// Name identifies the candidate, e.g. "virtio-balloon-huge".
	Name() string
	// Properties describes the candidate for Table 1.
	Properties() Properties
	// Shrink lowers the VM's hard memory limit to target bytes.
	Shrink(target uint64) error
	// Grow raises the VM's hard memory limit to target bytes.
	Grow(target uint64) error
	// Limit returns the current hard limit in bytes.
	Limit() uint64
	// AutoTick runs one automatic-reclamation cycle and returns the delay
	// until the next one (0 if automatic mode is unsupported).
	AutoTick() sim.Duration
}

// Properties is the Table 1 row of a mechanism.
type Properties struct {
	Granularity uint64 // bytes
	ManualLimit bool
	AutoMode    bool
	DMASafe     bool
}

// AutoTuner is implemented by mechanisms whose automatic-reclamation
// period can be retuned after attach (all current mechanisms). Hosts use
// it to replace the per-mechanism default periods with a policy-chosen
// one — e.g. the memory broker slows down per-VM auto reclamation when it
// drives the limits itself.
type AutoTuner interface {
	// SetAutoPeriod overrides the automatic-mode period. It does not
	// enable or disable the automatic mode; that stays a construction-time
	// property of the mechanism.
	SetAutoPeriod(d sim.Duration)
}

// VM bundles one virtual machine's state.
type VM struct {
	Name  string
	Guest *guest.Guest
	EPT   *ept.Table
	// IOMMU is non-nil when a VFIO device is passed through.
	IOMMU *iommu.Table
	Meter *ledger.Meter
	Model *costmodel.Model
	Pool  *hostmem.Pool
	Mech  Mechanism

	// InitialBytes is the boot-time memory size (the maximum; this
	// prototype does not grow beyond it, Sec. 6).
	InitialBytes uint64

	// Trace is the simulation's tracer (nil when tracing is off).
	// Mechanisms record their spans on tracks named under the VM
	// (TraceTrack); the EPT probe is wired by NewVM.
	Trace *trace.Tracer

	// autoPeriod is the attach-time automatic-reclamation period override
	// (0 keeps each mechanism's default); applied by SetMechanism.
	autoPeriod sim.Duration

	// autoEvent tracks the scheduled auto-reclamation tick.
	autoEvent sim.Handle
}

// Config for NewVM.
type Config struct {
	Name   string
	Guest  *guest.Guest
	Meter  *ledger.Meter
	Model  *costmodel.Model
	Pool   *hostmem.Pool
	VFIO   bool
	Mapped bool // populate all memory at boot (prepared VMs)
	// AutoPeriod overrides the mechanism's automatic-reclamation period at
	// attach time (0 keeps the mechanism default). This is the single knob
	// that replaces the per-mechanism DefaultAutoPeriod-style constants:
	// whichever mechanism is attached later picks it up through AutoTuner.
	AutoPeriod sim.Duration
	// Trace attaches the simulation's tracer to this VM (nil = off).
	Trace *trace.Tracer
}

// NewVM assembles a VM around a guest. The mechanism is attached
// afterwards via SetMechanism (mechanisms need the VM to exist first).
func NewVM(cfg Config) (*VM, error) {
	if cfg.Guest == nil || cfg.Meter == nil || cfg.Model == nil {
		return nil, fmt.Errorf("vmm: incomplete config")
	}
	pool := cfg.Pool
	if pool == nil {
		pool = hostmem.NewPool(0)
	}
	frames := mem.BytesToFrames(cfg.Guest.TotalBytes())
	vm := &VM{
		Name:         cfg.Name,
		Guest:        cfg.Guest,
		EPT:          ept.New(frames),
		Meter:        cfg.Meter,
		Model:        cfg.Model,
		Pool:         pool,
		InitialBytes: cfg.Guest.TotalBytes(),
		Trace:        cfg.Trace,
		autoPeriod:   cfg.AutoPeriod,
	}
	if cfg.Trace != nil {
		vm.EPT.SetTrace(cfg.Trace, cfg.Name+"/ept")
	}
	if cfg.VFIO {
		vm.IOMMU = iommu.New(frames)
	}
	cfg.Guest.TouchFn = vm.populateOnTouch
	if cfg.Mapped || cfg.VFIO {
		// A VFIO VM pins and maps all memory upfront (like QEMU with a
		// passthrough device); cfg.Mapped pre-populates without VFIO.
		vm.prepopulateAll()
	}
	return vm, nil
}

// SetMechanism attaches the reclamation mechanism and applies the
// attach-time options (the Config.AutoPeriod override).
func (vm *VM) SetMechanism(m Mechanism) {
	vm.Mech = m
	if vm.autoPeriod > 0 {
		vm.SetAutoPeriod(vm.autoPeriod)
	}
}

// SetAutoPeriod retunes the mechanism's automatic-reclamation period and
// reports whether the mechanism supports retuning. Restart the auto cycle
// (StopAuto/StartAuto) for a new period to take effect on an already
// running loop; AutoTick reschedules with the new period either way.
func (vm *VM) SetAutoPeriod(d sim.Duration) bool {
	if t, ok := vm.Mech.(AutoTuner); ok {
		t.SetAutoPeriod(d)
		return true
	}
	return false
}

// TraceTrack returns the VM-scoped track "<vm name>/<suffix>" (nil when
// tracing is off), the seam mechanisms use to record their spans.
func (vm *VM) TraceTrack(suffix string) *trace.Track {
	return vm.Trace.Track(vm.Name + "/" + suffix)
}

// RSS returns the VM's resident-set size (populated guest memory).
func (vm *VM) RSS() uint64 { return vm.EPT.MappedBytes() }

// FreeBytes returns the guest's allocatable memory — one of the two
// signals the host memory broker samples.
func (vm *VM) FreeBytes() uint64 { return vm.Guest.FreeBytes() }

// DemandBytes returns the guest memory in use under the current limit
// (anonymous + kernel allocations + page cache): limit minus allocatable.
// Reclaimed (ballooned / unplugged / hard-reclaimed) memory is excluded
// on both sides of the subtraction, so the value is comparable across
// mechanisms — it is the broker's per-VM demand signal.
func (vm *VM) DemandBytes() uint64 {
	limit, free := vm.Limit(), vm.Guest.FreeBytes()
	if free >= limit {
		return 0
	}
	return limit - free
}

// Limit returns the current hard memory limit.
func (vm *VM) Limit() uint64 {
	if vm.Mech == nil {
		return vm.InitialBytes
	}
	return vm.Mech.Limit()
}

// SetMemLimit resizes the VM via its mechanism (the QEMU console / QOM
// API entry point).
func (vm *VM) SetMemLimit(target uint64) error {
	if vm.Mech == nil {
		return fmt.Errorf("vmm: %s has no reclamation mechanism", vm.Name)
	}
	cur := vm.Mech.Limit()
	switch {
	case target < cur:
		return vm.Mech.Shrink(target)
	case target > cur:
		return vm.Mech.Grow(target)
	default:
		return nil
	}
}

// StartAuto begins the mechanism's automatic-reclamation cycle on the
// scheduler. No-op for mechanisms without an auto mode. A repeated call
// restarts the cycle: the previous chain is cancelled first, so at most
// one tick chain exists and StopAuto always silences it.
func (vm *VM) StartAuto(sched *sim.Scheduler) {
	if vm.Mech == nil {
		return
	}
	sched.Cancel(vm.autoEvent)
	vm.autoEvent = sim.Handle{}
	delay := vm.Mech.AutoTick()
	if delay <= 0 {
		return
	}
	vm.autoEvent = sched.After(delay, vm.Name+"/auto", vm.autoTick(sched))
}

// autoTick returns the auto-reclamation tick: one mechanism cycle, then
// re-arm after the delay it asks for (none ends the chain).
func (vm *VM) autoTick(sched *sim.Scheduler) func() {
	var tick func()
	tick = func() {
		if d := vm.Mech.AutoTick(); d > 0 {
			vm.autoEvent = sched.After(d, vm.Name+"/auto", tick)
		}
	}
	return tick
}

// StopAuto cancels the automatic-reclamation cycle.
func (vm *VM) StopAuto(sched *sim.Scheduler) {
	sched.Cancel(vm.autoEvent)
	vm.autoEvent = sim.Handle{}
}

// RestoreAuto re-arms the automatic-reclamation tick chain from a
// checkpoint: the pending event recorded under "<name>/auto" is
// re-registered with its original (at, seq) so it fires exactly when the
// uninterrupted run's would have. Subsequent ticks reschedule through the
// normal After path.
func (vm *VM) RestoreAuto(sched *sim.Scheduler, at sim.Time, seq uint64) {
	sched.Cancel(vm.autoEvent)
	vm.autoEvent = sched.RestoreAt(at, seq, vm.Name+"/auto", vm.autoTick(sched))
}

// adjustPool reconciles the host pool with an RSS delta. When the host is
// overcommitted, populating new pages makes the pool swap out another
// VM's memory (largest RSS first) — the swap IO and the direct-reclaim
// stall are charged to this VM (the faulting one waits for the host's
// reclaim).
func (vm *VM) adjustPool(deltaFrames int64) {
	if deltaFrames == 0 {
		return
	}
	io, err := vm.Pool.Adjust(vm.Name, deltaFrames*mem.PageSize)
	if err != nil {
		// Swap space is unbounded in this model; only accounting bugs land
		// here.
		panic("vmm: " + err.Error())
	}
	vm.chargeSwapIO(io)
}

// chargeSwapIO bills one pool operation's per-tier swap traffic to this
// VM: the backend-priced IO as host work, a quarter of it as a
// memory-subsystem stall (direct reclaim contends with the workload),
// and the moved bytes as bus traffic.
func (vm *VM) chargeSwapIO(io hostmem.IO) {
	if io == (hostmem.IO{}) {
		return
	}
	cost := vm.Pool.IOCost(vm.Model, io)
	vm.Meter.Work(ledger.Host, cost)
	vm.Meter.Stall(ledger.StallMem, cost/4)
	vm.Meter.Bus(io.Bytes())
}

// swapInOnTouch models major faults on host-swapped memory: while the VM
// has swap debt, an active guest keeps hitting evicted pages, so every
// touch faults debt back in at touch rate until it is drained. The swap
// IO — and any write-out it forces on an overcommitted host — is charged
// to this VM's chain, like any other major fault.
func (vm *VM) swapInOnTouch(bytes uint64) {
	if vm.Pool.Swapped(vm.Name) == 0 {
		return
	}
	io, err := vm.Pool.SwapIn(vm.Name, bytes)
	if err != nil {
		panic("vmm: " + err.Error())
	}
	vm.chargeSwapIO(io)
}

// populateOnTouch is installed as the guest's TouchFn: writing unpopulated
// memory EPT-faults and populates it. A fully unpopulated area is backed
// by a transparent huge page; a partially populated one (after
// virtio-balloon discarded individual 4 KiB pages of it) is filled with
// base mappings.
func (vm *VM) populateOnTouch(z *guest.Zone, pfn mem.PFN, frames uint64) {
	vm.swapInOnTouch(frames * mem.PageSize)
	gfn := z.GFN(pfn)
	end := gfn + mem.PFN(frames)
	for gfn < end {
		area := gfn.HugeIndex()
		areaEnd := mem.PFN((area + 1) * mem.FramesPerHuge)
		chunkEnd := end
		if areaEnd < chunkEnd {
			chunkEnd = areaEnd
		}
		switch {
		case vm.EPT.AreaMapped(area) == 0 && !vm.EPT.AreaFragmented(area):
			// Whole-area THP fault.
			newly, err := vm.EPT.Fault(gfn)
			if err != nil {
				panic("vmm: " + err.Error())
			}
			vm.chargeFaultHuge(newly)
			vm.adjustPool(int64(newly))
		case vm.EPT.AreaFullyMapped(area):
			// Already populated; nothing to do.
		default:
			// Partially populated area: fill the touched range with base
			// mappings in one word-wise range fault.
			newly, err := vm.EPT.FaultRange(gfn, uint64(chunkEnd-gfn))
			if err != nil {
				panic("vmm: " + err.Error())
			}
			vm.chargeFaultBaseRange(newly)
			vm.adjustPool(int64(newly))
		}
		if vm.EPT.DirtyTracking() {
			// Dirty logging (pre-copy migration): the write-protect faults
			// this write took on already-mapped clean frames are charged
			// here; frames the fault paths above just populated are born
			// dirty and already paid their populate fault.
			if wp := vm.EPT.MarkDirty(gfn, uint64(chunkEnd-gfn)); wp > 0 {
				vm.Meter.Work(ledger.Host, vm.Model.ChargeRange(wp, costmodel.OpWPFault))
			}
		}
		gfn = chunkEnd
	}
}

// chargeFaultHuge accounts one huge-page EPT fault: exit, population
// (allocate + zero 2 MiB host memory), and the EPT map.
func (vm *VM) chargeFaultHuge(frames uint64) {
	m, mod := vm.Meter, vm.Model
	bytes := frames * mem.PageSize
	m.Work(ledger.Host, mod.EPTFaultExit+mod.EPTMapHuge+mod.PopulateCost(bytes))
	m.Bus(bytes)
}

// chargeFaultBaseRange accounts frames base-page EPT faults in three meter
// calls. The split reproduces the per-page loop's ledger exactly: n
// alternating Work/Bus pairs coalesce (ledger coalescing window) into one
// Host entry starting at t0 and one Bus entry starting at t0+cost(1), so
// the batch advances one fault of work first, books the whole transfer,
// then the remaining n-1 faults.
func (vm *VM) chargeFaultBaseRange(frames uint64) {
	if frames == 0 {
		return
	}
	m, mod := vm.Meter, vm.Model
	m.Work(ledger.Host, mod.OpCost(costmodel.OpFaultBase))
	m.Bus(frames * mem.PageSize)
	if frames > 1 {
		m.Work(ledger.Host, mod.ChargeRange(frames-1, costmodel.OpFaultBase))
	}
}

// prepopulateAll maps and populates the whole guest (and pins it in the
// IOMMU when present) without charging time — boot-time setup.
func (vm *VM) prepopulateAll() {
	for area := uint64(0); area < vm.EPT.Areas(); area++ {
		newly, err := vm.EPT.MapHuge(area)
		if err != nil {
			panic("vmm: " + err.Error())
		}
		vm.adjustPool(int64(newly))
		if vm.IOMMU != nil {
			if _, err := vm.IOMMU.MapHuge(area); err != nil {
				panic("vmm: " + err.Error())
			}
		}
	}
}

// AdoptPlacement switches the VM onto a new host placement — the cut-over
// instant of a live migration: the destination EPT (repopulated by the
// copy stream), the destination IOMMU (nil unless VFIO), and the
// destination host's pool become the VM's own. The caller has already
// moved the pool accounting (hostmem Rename/Remove); this call must keep
// the conservation law intact, i.e. ept.MappedBytes() must equal the new
// pool's RSS+Swapped under the VM's name at the moment of the switch.
// Mechanisms and fault paths read vm.EPT/vm.Pool dynamically, so they
// continue on the new host without reattachment; the EPT trace probe is
// re-wired to the new table.
func (vm *VM) AdoptPlacement(t *ept.Table, io *iommu.Table, pool *hostmem.Pool) {
	vm.EPT = t
	vm.IOMMU = io
	vm.Pool = pool
	if vm.Trace != nil {
		vm.EPT.SetTrace(vm.Trace, vm.Name+"/ept")
	}
}

// GuestAreaZone resolves a guest-physical huge-frame index to its zone and
// zone-relative area index.
func (vm *VM) GuestAreaZone(gArea uint64) (*guest.Zone, uint64, error) {
	gfn := mem.PFN(gArea * mem.FramesPerHuge)
	z, ok := vm.Guest.ZoneFor(gfn)
	if !ok {
		return nil, 0, fmt.Errorf("vmm: guest area %d outside all zones", gArea)
	}
	return z, uint64(gfn-z.Base) / mem.FramesPerHuge, nil
}

// ZoneArea converts a zone-relative area index to a guest-physical one.
func ZoneArea(z *guest.Zone, area uint64) uint64 {
	return (uint64(z.Base) + area*mem.FramesPerHuge) / mem.FramesPerHuge
}

// DiscardArea removes the host backing of one guest-physical huge frame
// (EPT side only; costs are charged by the caller, which knows about
// batching). Returns the number of frames that were populated.
func (vm *VM) DiscardArea(gArea uint64) uint64 {
	was, err := vm.EPT.UnmapHuge(gArea)
	if err != nil {
		panic("vmm: " + err.Error())
	}
	vm.adjustPool(-int64(was))
	if vm.IOMMU != nil && was > 0 {
		// Discarding pinned memory behind the IOMMU breaks the device
		// mapping; DMA-safe mechanisms unmap (or remap) the IOMMU right
		// after, which clears the mark.
		start := mem.PFN(gArea * mem.FramesPerHuge)
		vm.IOMMU.MarkStaleRange(start, mem.FramesPerHuge)
	}
	return was
}

// DiscardBase removes the host backing of one guest-physical base frame.
// Returns whether it was populated.
func (vm *VM) DiscardBase(gfn mem.PFN) bool {
	was, err := vm.EPT.UnmapBase(gfn)
	if err != nil {
		panic("vmm: " + err.Error())
	}
	if was {
		vm.adjustPool(-1)
		if vm.IOMMU != nil {
			vm.IOMMU.MarkStale(gfn)
		}
	}
	return was
}

// DiscardBaseRange removes the host backing of the guest-physical base
// frames [gfn, gfn+frames) — the batched form of per-frame DiscardBase
// calls. Stale DMA marks are set for exactly the frames whose EPT mapping
// was cleared, matching the per-frame loop. Returns how many frames were
// populated.
func (vm *VM) DiscardBaseRange(gfn mem.PFN, frames uint64) uint64 {
	var cleared func(mem.PFN, uint64)
	if vm.IOMMU != nil {
		cleared = func(p mem.PFN, n uint64) { vm.IOMMU.MarkStaleRange(p, n) }
	}
	was, err := vm.EPT.UnmapRange(gfn, frames, cleared)
	if err != nil {
		panic("vmm: " + err.Error())
	}
	if was > 0 {
		vm.adjustPool(-int64(was))
	}
	return was
}

// PopulateArea maps and populates one guest-physical huge frame (EPT side
// only; costs charged by the caller). Returns newly populated frames.
func (vm *VM) PopulateArea(gArea uint64) uint64 {
	newly, err := vm.EPT.MapHuge(gArea)
	if err != nil {
		panic("vmm: " + err.Error())
	}
	vm.adjustPool(int64(newly))
	return newly
}

// DeviceDMA simulates a passthrough device DMA transfer into the guest
// frames [gfn, gfn+frames). Without a VFIO device it is an error; with
// one, it fails if any frame is not coherently mapped in the IOMMU.
func (vm *VM) DeviceDMA(gfn mem.PFN, frames uint64) error {
	if vm.IOMMU == nil {
		return fmt.Errorf("vmm: %s has no passthrough device", vm.Name)
	}
	return vm.IOMMU.DMA(gfn, frames)
}

// Auditor is implemented by mechanisms that can check their own invariants
// against the VM's state (currently the HyperAlloc core). VM.Audit chains
// into it when present.
type Auditor interface {
	Audit() error
}

// Audit runs every invariant checker this VM's state touches: the EPT's
// internal accounting, each zone allocator's validator, the cross-layer
// conservation law between the EPT and the host pool, and — when the
// mechanism implements Auditor — the mechanism's own state machine. The
// conservation law is
//
//	EPT.MappedBytes() == Pool.RSS(name) + Pool.Swapped(name)
//
// because host swap moves populated guest pages from residency to swap
// without unmapping them from the EPT. Audit must be called in quiescence
// (no reclamation in flight).
func (vm *VM) Audit() error {
	if err := vm.EPT.Validate(); err != nil {
		return fmt.Errorf("vmm %s: %w", vm.Name, err)
	}
	for _, z := range vm.Guest.Zones() {
		var err error
		switch impl := z.Impl.(type) {
		case *guest.LLFreeAdapter:
			err = impl.A.Validate()
		case *buddy.Alloc:
			err = impl.Validate()
		}
		if err != nil {
			return fmt.Errorf("vmm %s: zone %v: %w", vm.Name, z.Kind, err)
		}
	}
	mapped := vm.EPT.MappedBytes()
	resident := vm.Pool.RSS(vm.Name) + vm.Pool.Swapped(vm.Name)
	if mapped != resident {
		return fmt.Errorf("vmm %s: EPT maps %d bytes but pool accounts %d (rss %d + swapped %d)",
			vm.Name, mapped, resident, vm.Pool.RSS(vm.Name), vm.Pool.Swapped(vm.Name))
	}
	if a, ok := vm.Mech.(Auditor); ok {
		if err := a.Audit(); err != nil {
			return fmt.Errorf("vmm %s: %w", vm.Name, err)
		}
	}
	return nil
}
