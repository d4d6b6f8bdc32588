// Package core implements HyperAlloc, the paper's contribution: VM memory
// de/inflation through hypervisor-shared page-frame allocators (Sec. 3/4).
//
// The monitor holds a second handle ("cloned LLFree object") over each
// guest zone's LLFree state and manipulates the guest-visible (A, E) flags
// with single CAS transactions, while keeping its own authoritative
// reclamation state R per huge frame:
//
//	R = Installed      — backed by host memory (M=1)
//	R = SoftReclaimed  — unbacked, guest may allocate it (install on demand)
//	R = HardReclaimed  — unbacked and removed from the guest allocator
//
// Hard reclamation implements the adaptable memory hard limit; soft
// reclamation implements the automatic 5-second reclamation scan
// (Sec. 3.3). Installs are synchronous hypercalls issued by the guest
// allocator before an evicted frame is returned (install-on-allocate),
// which is what makes HyperAlloc DMA-safe under device passthrough.
package core

import (
	"errors"
	"fmt"
	"sync"

	"hyperalloc/internal/guest"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/virtioqueue"
	"hyperalloc/internal/vmm"
)

// ReclaimState is the monitor's authoritative per-huge-frame state R.
type ReclaimState uint8

const (
	// Installed: the frame is backed by host-physical memory.
	Installed ReclaimState = iota
	// SoftReclaimed: unbacked; the guest may allocate the frame, paying an
	// install hypercall.
	SoftReclaimed
	// HardReclaimed: unbacked and marked allocated+evicted in the guest
	// allocator; not available to the guest.
	HardReclaimed
)

// String implements fmt.Stringer.
func (r ReclaimState) String() string {
	switch r {
	case Installed:
		return "I"
	case SoftReclaimed:
		return "S"
	case HardReclaimed:
		return "H"
	default:
		return fmt.Sprintf("R(%d)", uint8(r))
	}
}

// ErrInsufficient reports that a hard shrink could not reclaim enough free
// huge frames even after the guest cache purge.
var ErrInsufficient = errors.New("core: not enough reclaimable memory")

// DefaultAutoPeriod is the automatic-reclamation scan period (Sec. 3.3:
// "Every 5 seconds, we scan the reclamation-state array").
const DefaultAutoPeriod = 5 * sim.Second

// installReq is the virtio descriptor of an install hypercall.
type installReq struct {
	zone  int
	gArea uint64
}

// Counters are the monitor's experiment counters.
type Counters struct {
	HardReclaims uint64 `json:",omitempty"`
	SoftReclaims uint64 `json:",omitempty"`
	Returns      uint64 `json:",omitempty"`
	Installs     uint64 `json:",omitempty"`
	Scans        uint64 `json:",omitempty"`
	CachePurges  uint64 `json:",omitempty"`
	UnmapCalls   uint64 `json:",omitempty"`
	// GuestAnomalies counts shared-state corruptions by a non-conforming
	// guest that the monitor repaired (Sec. 3.2).
	GuestAnomalies uint64 `json:",omitempty"`
	// CacheShrinks counts hypervisor-initiated page-cache trims (Sec. 6).
	CacheShrinks uint64 `json:",omitempty"`
}

// Mechanism is the HyperAlloc monitor component of one VM.
type Mechanism struct {
	vm *vmm.VM
	// mu is the per-VM lock serializing reclaim/return/install (Sec. 3.2;
	// per-frame locking is future work in the paper too).
	mu    sync.Mutex
	zones []*zoneState
	limit uint64

	// AutoPeriod is the soft-reclamation period (default 5 s; 0 disables).
	AutoPeriod sim.Duration

	queue *virtioqueue.Queue[installReq]

	Counters

	// track carries the mechanism's spans and instants ("<vm>/mech");
	// tp mirrors the counters above into the trace registry. Both are nil
	// when tracing is off.
	track *trace.Track
	tp    *coreProbe
}

// coreProbe is the registry view of the mechanism counters, keyed
// "<vm>/core/...". The per-huge-frame R transitions (I→S, I→H, S→H on
// reclaim; H→S on return; →I on install) map onto soft_reclaims,
// hard_reclaims, returns, and installs respectively.
type coreProbe struct {
	hardReclaims *trace.Counter
	softReclaims *trace.Counter
	returns      *trace.Counter
	installs     *trace.Counter
	scans        *trace.Counter
	cachePurges  *trace.Counter
	unmapCalls   *trace.Counter
	anomalies    *trace.Counter
}

// zoneState is the monitor's view of one guest zone.
type zoneState struct {
	z *guest.Zone
	// shared is the monitor's handle over the guest's allocator state.
	shared *llfree.Alloc
	r      []ReclaimState
}

// New attaches HyperAlloc to a VM whose zones run on LLFree. During boot
// the guest communicates the allocator-state addresses over a virtio
// queue (one hypercall per zone, Sec. 4.2); the monitor maps the state and
// clones its LLFree view.
func New(vm *vmm.VM) (*Mechanism, error) {
	m := &Mechanism{
		vm:         vm,
		limit:      vm.InitialBytes,
		AutoPeriod: DefaultAutoPeriod,
	}
	q, err := virtioqueue.New(64, m.handleInstalls)
	if err != nil {
		return nil, err
	}
	m.queue = q
	if vm.Trace != nil {
		m.track = vm.TraceTrack("mech")
		m.queue.SetTrace(vm.Trace, vm.Name+"/virtio")
		reg := vm.Trace.Registry()
		pre := vm.Name + "/core/"
		m.tp = &coreProbe{
			hardReclaims: reg.Counter(pre + "hard_reclaims"),
			softReclaims: reg.Counter(pre + "soft_reclaims"),
			returns:      reg.Counter(pre + "returns"),
			installs:     reg.Counter(pre + "installs"),
			scans:        reg.Counter(pre + "scans"),
			cachePurges:  reg.Counter(pre + "cache_purges"),
			unmapCalls:   reg.Counter(pre + "unmap_calls"),
			anomalies:    reg.Counter(pre + "guest_anomalies"),
		}
	}
	for i, z := range vm.Guest.Zones() {
		adapter, ok := z.Impl.(*guest.LLFreeAdapter)
		if !ok {
			return nil, fmt.Errorf("core: zone %v is not LLFree-backed", z.Kind)
		}
		zs := &zoneState{
			z:      z,
			shared: adapter.A.Share(),
			r:      make([]ReclaimState, adapter.A.Areas()),
		}
		m.zones = append(m.zones, zs)
		// Locate-state hypercall at boot.
		vm.Meter.Work(ledger.Host, vm.Model.Hypercall)
		zoneIdx := i
		adapter.InstallHook = func(area uint64) {
			// The allocation waits for the hypercall to terminate before
			// returning the frame (Sec. 3.2): kick synchronously.
			m.queue.PushAndKick(installReq{zone: zoneIdx, gArea: area}, 1)
		}
	}
	if len(m.zones) == 0 {
		return nil, fmt.Errorf("core: guest has no zones")
	}
	vm.SetMechanism(m)
	return m, nil
}

// Name implements vmm.Mechanism.
func (m *Mechanism) Name() string {
	if m.vm.IOMMU != nil {
		return "HyperAlloc+VFIO"
	}
	return "HyperAlloc"
}

// Properties implements vmm.Mechanism (Table 1 row).
func (m *Mechanism) Properties() vmm.Properties {
	return vmm.Properties{
		Granularity: mem.HugeSize,
		ManualLimit: true,
		AutoMode:    true,
		DMASafe:     true,
	}
}

// Limit implements vmm.Mechanism.
func (m *Mechanism) Limit() uint64 { return m.limit }

// SetAutoPeriod implements vmm.AutoTuner: override the soft-reclamation
// scan period (Sec. 3.3's 5 s is DefaultAutoPeriod, not a requirement).
func (m *Mechanism) SetAutoPeriod(d sim.Duration) { m.AutoPeriod = d }

// reclaimOrder returns zones in the order the monitor reclaims from them:
// Normal zones first, then DMA32; the Movable kind does not occur in
// HyperAlloc guests (Sec. 4.2).
func (m *Mechanism) reclaimOrder() []*zoneState {
	ordered := make([]*zoneState, 0, len(m.zones))
	for _, kind := range []mem.ZoneKind{mem.ZoneNormal, mem.ZoneMovable, mem.ZoneDMA32} {
		for _, zs := range m.zones {
			if zs.z.Kind == kind {
				ordered = append(ordered, zs)
			}
		}
	}
	return ordered
}

// Shrink implements vmm.Mechanism: hard reclamation down to target bytes.
// Without enough free memory it instructs the guest to purge its caches
// and retries once (Sec. 3.3).
func (m *Mechanism) Shrink(target uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if target >= m.limit {
		return nil
	}
	if m.track.Enabled() {
		m.track.Begin("shrink", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	need := (m.limit - target) / mem.HugeSize
	for attempt := 0; need > 0 && attempt < 2; attempt++ {
		if attempt == 1 {
			m.cachePurge()
		}
		for _, zs := range m.reclaimOrder() {
			if need == 0 {
				break
			}
			need -= m.reclaimZone(zs, need, HardReclaimed)
		}
	}
	m.limit = target + need*mem.HugeSize
	if need > 0 {
		return fmt.Errorf("%w: %d huge frames short of %s", ErrInsufficient,
			need, mem.HumanBytes(target))
	}
	return nil
}

// reclaimZone reclaims up to maxHuge free huge frames from one zone into
// the given state (HardReclaimed for the hard limit, SoftReclaimed for
// automatic reclamation). Returns the number reclaimed.
//
// Unmaps are aggregated: contiguous runs of host-mapped huge frames are
// removed with a single madvise (Sec. 4.2 "aggregate huge frames during
// reclamation and unmap them with a single syscall").
func (m *Mechanism) reclaimZone(zs *zoneState, maxHuge uint64, to ReclaimState) uint64 {
	model := m.vm.Model
	var taken uint64
	var run []uint64 // guest-physical areas pending unmap, ascending
	flush := func() {
		if len(run) > 0 {
			m.unmapRun(run)
			run = run[:0]
		}
	}
	if to == HardReclaimed {
		// Soft-reclaimed frames first: they are already unbacked, so the
		// transition is a single CAS on the allocator state (this is what
		// makes reclaiming untouched memory run at 4.92 TiB/s, Sec. 5.3).
		for area := uint64(0); area < uint64(len(zs.r)) && taken < maxHuge; area++ {
			if zs.r[area] != SoftReclaimed {
				continue
			}
			if err := zs.shared.ReclaimHard(area); err != nil {
				continue // the guest allocated it concurrently
			}
			zs.r[area] = HardReclaimed
			m.HardReclaims++
			if m.tp != nil {
				m.tp.hardReclaims.Inc()
			}
			m.vm.Meter.Work(ledger.Host, model.LLFreeReclaimHuge)
			taken++
		}
		if m.track.Enabled() && taken > 0 {
			// The fast CAS-only S→H pass, aggregated (per-frame instants
			// would dwarf the trace at 4.92 TiB/s).
			m.track.Instant("reclaim_soft_to_hard", trace.Uint("areas", taken))
		}
		if taken >= maxHuge {
			return taken
		}
	}
	preScan := taken
	zs.shared.ScanFreeHuge(func(area uint64) bool {
		var err error
		if to == HardReclaimed {
			err = zs.shared.ReclaimHard(area)
		} else {
			err = zs.shared.ReclaimSoft(area)
		}
		if err != nil {
			return true // lost the race against a guest allocation; move on
		}
		if to == HardReclaimed {
			m.HardReclaims++
		} else {
			m.SoftReclaims++
		}
		if m.tp != nil {
			if to == HardReclaimed {
				m.tp.hardReclaims.Inc()
			} else {
				m.tp.softReclaims.Inc()
			}
		}
		zs.r[area] = to
		// State transition cost (CAS transactions on the shared arrays).
		m.vm.Meter.Work(ledger.Host, model.LLFreeReclaimHuge)
		gArea := vmm.ZoneArea(zs.z, area)
		if m.vm.EPT.AreaMapped(gArea) > 0 {
			if len(run) > 0 && run[len(run)-1]+1 != gArea {
				flush()
			}
			run = append(run, gArea)
		}
		taken++
		return taken < maxHuge
	})
	flush()
	if m.track.Enabled() && taken > preScan {
		m.track.Instant("reclaim", trace.String("to", to.String()),
			trace.Uint("areas", taken-preScan))
	}
	return taken
}

// unmapRun removes a contiguous run of mapped huge frames with one
// madvise: one syscall + one TLB shootdown for the whole run, per-frame
// EPT work, and per-frame IOMMU work under VFIO.
func (m *Mechanism) unmapRun(run []uint64) {
	model := m.vm.Model
	meter := m.vm.Meter
	m.UnmapCalls++
	if m.tp != nil {
		m.tp.unmapCalls.Inc()
		m.track.Instant("unmap_run", trace.Uint("areas", uint64(len(run))))
	}
	cost := model.Syscall + model.TLBInvalidation
	for _, gArea := range run {
		m.vm.DiscardArea(gArea)
		cost += model.EPTUnmapHuge
		if m.vm.IOMMU != nil {
			if _, err := m.vm.IOMMU.UnmapHuge(gArea); err != nil {
				panic("core: " + err.Error())
			}
			cost += model.IOMMUUnmapHuge + model.IOTLBFlush
		}
	}
	meter.Work(ledger.Host, cost)
	meter.Stall(ledger.StallCPU, model.StallPerUnmapSyscall)
}

// cachePurge instructs the guest to free its caches — the same memory
// pressure virtio-balloon induces (Sec. 3.3).
func (m *Mechanism) cachePurge() {
	m.CachePurges++
	dropped := m.vm.Guest.Cache().Bytes()
	if m.tp != nil {
		m.tp.cachePurges.Inc()
		m.track.Instant("cache_purge", trace.Uint("dropped", dropped))
	}
	m.vm.Guest.Purge()
	// Freeing the cache costs guest CPU time proportional to its size.
	m.vm.Meter.Work(ledger.Guest, sim.DurationFor(dropped, 20.0))
}

// Grow implements vmm.Mechanism: return hard-reclaimed frames to the guest
// as soft-reclaimed (A<-0, E stays 1), delaying actual allocation until
// the guest triggers install.
func (m *Mechanism) Grow(target uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.track.Enabled() {
		m.track.Begin("grow", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	if target > m.vm.InitialBytes {
		// Growing beyond the initial allocation needs hotplug integration
		// (Sec. 6); clamp like the prototype.
		target = m.vm.InitialBytes
	}
	need := (target - m.limit + mem.HugeSize - 1) / mem.HugeSize
	for _, zs := range m.reclaimOrder() {
		for area := uint64(0); area < uint64(len(zs.r)) && need > 0; area++ {
			if zs.r[area] != HardReclaimed {
				continue
			}
			if err := zs.shared.ReturnHuge(area); err != nil {
				// A non-conforming guest interfered with the shared flags
				// (e.g. "freed" the reclaimed frame). The frame is unbacked
				// either way: repair the hint from R and treat it as soft
				// reclaimed — any allocation still has to install
				// (Sec. 3.2: manipulated guest state cannot compromise the
				// hypervisor).
				zs.shared.SetEvicted(area)
				m.GuestAnomalies++
				if m.tp != nil {
					m.tp.anomalies.Inc()
					m.track.Instant("guest_anomaly", trace.Uint("area", area))
				}
			}
			zs.r[area] = SoftReclaimed
			m.Returns++
			if m.tp != nil {
				m.tp.returns.Inc()
			}
			m.vm.Meter.Work(ledger.Host, m.vm.Model.LLFreeReturnHuge)
			need--
			m.limit += mem.HugeSize
		}
	}
	return nil
}

// handleInstalls is the device side of the install queue: provide host
// memory, map it in all guest-accessible page tables, and update R.
func (m *Mechanism) handleInstalls(reqs []installReq) {
	for _, req := range reqs {
		m.install(m.zones[req.zone], req.gArea)
	}
}

// install backs one huge frame with host memory. Idempotent under the
// per-VM lock: concurrent allocations in the same area may both request
// it (Sec. 3.2).
func (m *Mechanism) install(zs *zoneState, area uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	model := m.vm.Model
	// The hypercall itself: guest -> QEMU -> kernel, two mode switches.
	m.vm.Meter.Work(ledger.Guest, model.Hypercall)
	if zs.r[area] == Installed {
		zs.shared.ClearEvicted(area)
		return
	}
	gArea := vmm.ZoneArea(zs.z, area)
	newly := m.vm.PopulateArea(gArea)
	// The install takes the longer path through the user-space monitor
	// (wakeup + madvise) instead of KVM's in-kernel fault handler, making
	// it ~6% slower end to end (Sec. 5.3 Return+Install).
	cost := model.MonitorDispatch + model.Syscall + model.EPTMapHuge +
		model.PopulateCost(newly*mem.PageSize)
	if m.vm.IOMMU != nil {
		if _, err := m.vm.IOMMU.MapHuge(gArea); err != nil {
			panic("core: " + err.Error())
		}
		cost += model.PinHuge + model.IOMMUMapHuge
	}
	m.vm.Meter.Work(ledger.Host, cost)
	m.vm.Meter.Bus(newly * mem.PageSize)
	zs.r[area] = Installed
	m.Installs++
	if m.tp != nil {
		m.tp.installs.Inc()
		m.track.Instant("install", trace.Uint("area", gArea), trace.Uint("frames", newly))
	}
	zs.shared.ClearEvicted(area)
}

// AutoTick implements vmm.Mechanism: one soft-reclamation scan (Sec. 3.3).
// The scan walks the reclamation-state array and the shared allocator
// state (18 cache lines per GiB) and soft-reclaims free, installed huge
// frames.
func (m *Mechanism) AutoTick() sim.Duration {
	if m.AutoPeriod <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Scans++
	if m.tp != nil {
		m.tp.scans.Inc()
	}
	if m.track.Enabled() {
		m.track.Begin("auto_scan")
		defer m.track.End()
	}
	scanned := m.vm.Guest.TotalBytes()
	m.vm.Meter.Work(ledger.Host,
		sim.Duration(float64(m.vm.Model.LLFreeScanGiB)*float64(scanned)/float64(mem.GiB)))
	for _, zs := range m.reclaimOrder() {
		m.reclaimZone(zs, ^uint64(0), SoftReclaimed)
	}
	return m.AutoPeriod
}

// State returns the monitor's reclamation state of a guest-physical huge
// frame (for tests and introspection).
func (m *Mechanism) State(gArea uint64) (ReclaimState, error) {
	for _, zs := range m.zones {
		start := uint64(zs.z.Base) / mem.FramesPerHuge
		if gArea >= start && gArea < start+uint64(len(zs.r)) {
			return zs.r[gArea-start], nil
		}
	}
	return 0, fmt.Errorf("core: area %d outside zones", gArea)
}

// ReclaimedBytes returns the bytes currently reclaimed (soft + hard).
func (m *Mechanism) ReclaimedBytes() uint64 {
	var n uint64
	for _, zs := range m.zones {
		for _, r := range zs.r {
			if r != Installed {
				n += mem.HugeSize
			}
		}
	}
	return n
}

// Audit implements vmm.Auditor: it checks the monitor's reclamation-state
// array R against the guest-visible allocator flags (A, E) and the EPT.
// In quiescence (no reclaim, return, or install in flight, and a guest
// that plays by the rules):
//
//	R=I  ⇒  E=0                               (install clears the hint)
//	R=S  ⇒  E=1, A=0, area unmapped           (allocation would install)
//	R=H  ⇒  E=1, A=1, counter 0, unmapped     (removed from the guest)
//
// and the hard limit accounts for every hard-reclaimed frame:
// InitialBytes - limit >= hard*HugeSize (≥ rather than ==, because a
// shrink to an unaligned target lowers the limit by the sub-2 MiB
// remainder without reclaiming a frame for it).
func (m *Mechanism) Audit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hard uint64
	for zi, zs := range m.zones {
		for area := range zs.r {
			st := zs.shared.AreaState(uint64(area))
			gArea := vmm.ZoneArea(zs.z, uint64(area))
			switch zs.r[area] {
			case Installed:
				if st.Evicted {
					return fmt.Errorf("core: zone %d area %d: R=I but E=1", zi, area)
				}
			case SoftReclaimed:
				if !st.Evicted {
					return fmt.Errorf("core: zone %d area %d: R=S but E=0", zi, area)
				}
				if st.HugeAllocated {
					return fmt.Errorf("core: zone %d area %d: R=S but A=1", zi, area)
				}
				if n := m.vm.EPT.AreaMapped(gArea); n != 0 {
					return fmt.Errorf("core: zone %d area %d: R=S but %d frames mapped", zi, area, n)
				}
			case HardReclaimed:
				hard++
				if !st.Evicted || !st.HugeAllocated {
					return fmt.Errorf("core: zone %d area %d: R=H but E=%v A=%v",
						zi, area, st.Evicted, st.HugeAllocated)
				}
				if st.Free != 0 {
					return fmt.Errorf("core: zone %d area %d: R=H with counter %d", zi, area, st.Free)
				}
				if n := m.vm.EPT.AreaMapped(gArea); n != 0 {
					return fmt.Errorf("core: zone %d area %d: R=H but %d frames mapped", zi, area, n)
				}
			default:
				return fmt.Errorf("core: zone %d area %d: unknown state %d", zi, area, zs.r[area])
			}
		}
	}
	if m.limit > m.vm.InitialBytes {
		return fmt.Errorf("core: limit %d above initial %d", m.limit, m.vm.InitialBytes)
	}
	if m.vm.InitialBytes-m.limit < hard*mem.HugeSize {
		return fmt.Errorf("core: %d hard-reclaimed frames but limit only %d below initial",
			hard, m.vm.InitialBytes-m.limit)
	}
	return nil
}
