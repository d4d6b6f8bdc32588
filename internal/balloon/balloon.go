// Package balloon implements virtio-balloon memory ballooning over the
// buddy allocator: the classic 4 KiB variant, the 2 MiB huge-page variant
// of Hu et al. (virtio-balloon-huge), and the automatic free-page
// reporting mode with its REPORTING_ORDER / REPORTING_DELAY /
// REPORTING_CAPACITY parameters (paper Sec. 5.5).
//
// Inflation allocates guest frames through the balloon driver and sends
// them to the monitor over a virtio queue (up to 256 descriptors per
// kick); the monitor discards each one with an madvise syscall and an EPT
// unmap. Deflation returns the frames to the guest allocator one by one;
// the host repopulates them on later EPT faults. Because repopulation
// relies on faults, ballooning is not DMA-safe (Sec. 2).
package balloon

import (
	"errors"
	"fmt"

	"hyperalloc/internal/buddy"
	"hyperalloc/internal/costmodel"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/virtioqueue"
	"hyperalloc/internal/vmm"
)

// ErrInsufficient reports that inflation could not allocate enough guest
// frames.
var ErrInsufficient = errors.New("balloon: not enough free guest memory")

// KickBatch is the number of pages aggregated per hypercall ("up to 256
// pages per hypercall", paper footnote 4).
const KickBatch = 256

// Config parameterizes the balloon.
type Config struct {
	// Huge selects 2 MiB granularity (virtio-balloon-huge, Hu et al.).
	Huge bool
	// FreePageReporting enables the automatic mode.
	FreePageReporting bool
	// ReportingOrder is the minimum order of reported blocks (o). The
	// paper's default configuration is o=9 (2 MiB); o=0 reports single
	// 4 KiB pages. Callers enabling FreePageReporting set it explicitly.
	ReportingOrder mem.Order
	// ReportingDelay is the pause between reporting cycles (d). Default 2 s.
	ReportingDelay sim.Duration
	// ReportingCapacity is the number of blocks per report batch (c).
	// Default 32.
	ReportingCapacity int
}

// Counters are the balloon's experiment counters.
type Counters struct {
	Inflations  uint64 `json:",omitempty"`
	Deflations  uint64 `json:",omitempty"`
	Reports     uint64 `json:",omitempty"`
	ReportedOps uint64 `json:",omitempty"`
	Hypercalls  uint64 `json:",omitempty"`
	Madvises    uint64 `json:",omitempty"`
}

// desc is one driver-held (inflated) block: zone index, zone-relative
// frame and order, as the guest's checkpoints name a block.
type desc = guest.ChunkState

// Mechanism is the balloon device + driver pair of one VM.
type Mechanism struct {
	vm    *vmm.VM
	cfg   Config
	limit uint64

	// inflated tracks driver-held frames per zone, LIFO.
	inflated [][]desc
	queue    *virtioqueue.Queue[desc]

	Counters

	// track is the "<vm>/mech" trace track (nil when tracing is off).
	track *trace.Track
}

// New attaches a balloon to a VM whose zones run on the buddy allocator.
func New(vm *vmm.VM, cfg Config) (*Mechanism, error) {
	if cfg.ReportingDelay == 0 {
		cfg.ReportingDelay = 2 * sim.Second
	}
	if cfg.ReportingCapacity == 0 {
		cfg.ReportingCapacity = 32
	}
	m := &Mechanism{
		vm:       vm,
		cfg:      cfg,
		limit:    vm.InitialBytes,
		inflated: make([][]desc, len(vm.Guest.Zones())),
	}
	for _, z := range vm.Guest.Zones() {
		if _, ok := z.Impl.(*buddy.Alloc); !ok {
			return nil, fmt.Errorf("balloon: zone %v is not buddy-backed", z.Kind)
		}
	}
	q, err := virtioqueue.New(KickBatch, m.discard)
	if err != nil {
		return nil, err
	}
	m.queue = q
	if vm.Trace != nil {
		m.track = vm.TraceTrack("mech")
		m.queue.SetTrace(vm.Trace, vm.Name+"/virtio")
	}
	vm.SetMechanism(m)
	return m, nil
}

// Name implements vmm.Mechanism.
func (m *Mechanism) Name() string {
	if m.cfg.Huge {
		return "virtio-balloon-huge"
	}
	return "virtio-balloon"
}

// Properties implements vmm.Mechanism (Table 1 row).
func (m *Mechanism) Properties() vmm.Properties {
	g := uint64(mem.PageSize)
	if m.cfg.Huge {
		g = mem.HugeSize
	}
	return vmm.Properties{Granularity: g, ManualLimit: true, AutoMode: true, DMASafe: false}
}

// Limit implements vmm.Mechanism.
func (m *Mechanism) Limit() uint64 { return m.limit }

// SetAutoPeriod implements vmm.AutoTuner: the balloon's automatic-mode
// period is the free-page-reporting delay (REPORTING_DELAY).
func (m *Mechanism) SetAutoPeriod(d sim.Duration) { m.cfg.ReportingDelay = d }

// order returns the balloon's page granularity.
func (m *Mechanism) order() mem.Order {
	if m.cfg.Huge {
		return mem.HugeOrder
	}
	return 0
}

// Shrink implements vmm.Mechanism: inflate the balloon until the limit
// drops to target. Driver-side allocations go through the guest's
// pressure path, so inflation evicts the page cache exactly like real
// ballooning.
func (m *Mechanism) Shrink(target uint64) error {
	if m.track.Enabled() {
		m.track.Begin("shrink", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	order := m.order()
	typ := mem.Movable
	if m.cfg.Huge {
		typ = mem.Huge
	}
	model := m.vm.Model
	zones := m.vm.Guest.Zones()
	for m.limit > target {
		z, pfn, err := m.vm.Guest.AllocRaw(0, order, typ)
		if err != nil {
			m.queue.Kick()
			return fmt.Errorf("%w: %v", ErrInsufficient, err)
		}
		// Driver-side allocation cost.
		if m.cfg.Huge {
			m.vm.Meter.Work(ledger.Guest, model.BalloonAllocHuge)
		} else {
			m.vm.Meter.Work(ledger.Guest, model.BalloonAllocBase)
		}
		d := desc{Zone: zoneIndex(zones, z), PFN: pfn, Order: order}
		m.inflated[d.Zone] = append(m.inflated[d.Zone], d)
		m.Inflations++
		m.queue.PushAndKick(d, KickBatch)
		m.limit -= order.Size()
	}
	m.queue.Kick()
	return nil
}

// discard is the monitor side: one madvise per descriptor (hypercalls are
// aggregated, "the other syscalls and page operations are not").
func (m *Mechanism) discard(batch []desc) {
	model := m.vm.Model
	// The kick that delivered this batch.
	m.vm.Meter.Work(ledger.Guest, model.Hypercall)
	m.Hypercalls++
	zones := m.vm.Guest.Zones()
	for _, d := range batch {
		m.Madvises++
		gfn := zones[d.Zone].GFN(d.PFN)
		cost := model.Syscall
		if d.Order == mem.HugeOrder {
			if m.vm.EPT.AreaMapped(gfn.HugeIndex()) > 0 {
				m.vm.DiscardArea(gfn.HugeIndex())
				cost += model.EPTUnmapHuge + model.TLBInvalidation
			}
		} else {
			if m.vm.DiscardBase(gfn) {
				cost += model.EPTUnmapBase
			}
		}
		m.vm.Meter.Work(ledger.Host, cost)
		m.vm.Meter.Stall(ledger.StallCPU, model.StallPerUnmapSyscall)
	}
}

// Grow implements vmm.Mechanism: deflate by returning frames to the guest
// allocator one by one; the host populates them again on later EPT faults.
func (m *Mechanism) Grow(target uint64) error {
	if m.track.Enabled() {
		m.track.Begin("grow", trace.Uint("target", target), trace.Uint("limit", m.limit))
		defer m.track.End()
	}
	model := m.vm.Model
	zones := m.vm.Guest.Zones()
	for m.limit < target {
		d, ok := m.pop()
		if !ok {
			break // balloon empty; the VM is back at its initial size
		}
		if m.cfg.Huge {
			m.vm.Meter.Work(ledger.Guest, model.BalloonFreeHuge)
		} else {
			m.vm.Meter.Work(ledger.Guest, model.BalloonFreeBase)
		}
		m.vm.Guest.FreeRaw(zones[d.Zone], d.PFN, d.Order)
		m.vm.Meter.Stall(ledger.StallCPU, model.StallPerBalloonFree)
		m.Deflations++
		m.limit += d.Order.Size()
	}
	return nil
}

func (m *Mechanism) pop() (desc, bool) {
	for zi := range m.inflated {
		l := m.inflated[zi]
		if len(l) == 0 {
			continue
		}
		d := l[len(l)-1]
		m.inflated[zi] = l[:len(l)-1]
		return d, true
	}
	return desc{}, false
}

// AutoTick implements vmm.Mechanism: one free-page-reporting cycle. The
// driver collects up to REPORTING_CAPACITY unreported free blocks of at
// least REPORTING_ORDER, marks them reported, and the monitor discards
// them. Reported blocks stay logically free for the guest.
func (m *Mechanism) AutoTick() sim.Duration {
	if !m.cfg.FreePageReporting {
		return 0
	}
	if m.track.Enabled() {
		m.track.Begin("report_cycle")
		defer m.track.End()
	}
	model := m.vm.Model
	zones := m.vm.Guest.Zones()
	for zi, z := range zones {
		b := z.Impl.(*buddy.Alloc)
		blocks := b.CollectReportable(m.cfg.ReportingOrder, m.cfg.ReportingCapacity)
		if len(blocks) == 0 {
			continue
		}
		m.Reports++
		// One hypercall delivers the batch.
		m.vm.Meter.Work(ledger.Guest, model.Hypercall)
		m.Hypercalls++
		for _, blk := range blocks {
			if !b.MarkReported(blk.PFN, blk.Order) {
				continue // allocated meanwhile; must not discard
			}
			m.ReportedOps++
			m.discardReported(zones[zi], blk)
		}
	}
	return m.cfg.ReportingDelay
}

// discardReported drops the host backing of one reported free block.
func (m *Mechanism) discardReported(z *guest.Zone, blk buddy.FreeBlock) {
	model := m.vm.Model
	m.Madvises++
	cost := model.Syscall
	start := z.GFN(blk.PFN)
	if blk.Order >= mem.HugeOrder {
		for a := uint64(0); a < blk.Order.Frames()/mem.FramesPerHuge; a++ {
			gArea := start.HugeIndex() + a
			if m.vm.EPT.AreaMapped(gArea) > 0 {
				m.vm.DiscardArea(gArea)
				cost += model.EPTUnmapHuge
			}
		}
		cost += model.TLBInvalidation
	} else {
		was := m.vm.DiscardBaseRange(start, blk.Order.Frames())
		cost += model.ChargeRange(was, costmodel.OpEPTUnmapBase)
	}
	m.vm.Meter.Work(ledger.Host, cost)
	m.vm.Meter.Stall(ledger.StallCPU, model.StallPerUnmapSyscall)
}

// InflatedBytes returns the driver-held balloon size.
func (m *Mechanism) InflatedBytes() uint64 {
	var n uint64
	for _, l := range m.inflated {
		for _, d := range l {
			n += d.Order.Size()
		}
	}
	return n
}

func zoneIndex(zones []*guest.Zone, z *guest.Zone) int {
	for i, zz := range zones {
		if zz == z {
			return i
		}
	}
	panic("balloon: unknown zone")
}
