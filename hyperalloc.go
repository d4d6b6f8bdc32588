// Package hyperalloc is a simulation-level reproduction of "HyperAlloc:
// Efficient VM Memory De/Inflation via Hypervisor-Shared Page-Frame
// Allocators" (EuroSys '25).
//
// It provides a deterministic full-system simulation of VM memory
// de/inflation: a lock-free LLFree page-frame allocator shared between
// guest and monitor (the paper's contribution), the virtio-balloon,
// virtio-balloon-huge, and virtio-mem competitors over a Linux-style
// buddy allocator, simulated EPT/IOMMU/host-memory substrates with a
// calibrated cost model, and workload generators that regenerate every
// table and figure of the paper's evaluation.
//
// Quick start:
//
//	sys := hyperalloc.NewSystem(42)
//	vm, err := sys.NewVM(hyperalloc.Options{
//		Name:      "vm0",
//		Candidate: hyperalloc.CandidateHyperAlloc,
//		Memory:    20 * hyperalloc.GiB,
//	})
//	if err != nil { ... }
//	_ = vm.SetMemLimit(2 * hyperalloc.GiB) // hard-shrink to 2 GiB
//	fmt.Println(hyperalloc.HumanBytes(vm.RSS()))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package hyperalloc

import (
	"fmt"

	"hyperalloc/internal/balloon"
	"hyperalloc/internal/buddy"
	"hyperalloc/internal/core"
	"hyperalloc/internal/costmodel"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/pricing"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/virtiomem"
	"hyperalloc/internal/vmm"
)

// Candidate selects the reclamation technique of a VM (Table 1).
type Candidate string

// The evaluation candidates.
const (
	// CandidateBaseline is an unresized VM (no reclamation; used as the
	// performance baseline).
	CandidateBaseline Candidate = "baseline"
	// CandidateBalloon is virtio-balloon with 4 KiB granularity.
	CandidateBalloon Candidate = "virtio-balloon"
	// CandidateBalloonHuge is huge-page ballooning (Hu et al., 2 MiB).
	CandidateBalloonHuge Candidate = "virtio-balloon-huge"
	// CandidateVirtioMem is virtio-mem memory hot(un)plug.
	CandidateVirtioMem Candidate = "virtio-mem"
	// CandidateHyperAlloc is the paper's contribution.
	CandidateHyperAlloc Candidate = "HyperAlloc"
)

// Candidates lists all evaluation candidates in Table 1 order.
func Candidates() []Candidate {
	return []Candidate{
		CandidateBalloon, CandidateBalloonHuge,
		CandidateVirtioMem, CandidateHyperAlloc,
	}
}

// System is one simulated host: a virtual clock with an event scheduler,
// a calibrated cost model, a host memory pool, and a seeded RNG.
type System struct {
	Sched *sim.Scheduler
	Model *costmodel.Model
	Pool  *hostmem.Pool
	RNG   *sim.RNG

	// Trace is the system's tracer (nil = off). Set it with SetTracer
	// before creating VMs so every layer picks up its probes.
	Trace *trace.Tracer
}

// NewSystem creates a host with unlimited memory; rates follow the
// paper's 2x Xeon Gold 6252 testbed calibration.
func NewSystem(seed uint64) *System {
	return NewSystemWithMemory(seed, 0)
}

// NewSystemWithMemory creates a host with finite physical memory: when
// its VMs overcommit it, populating new pages swaps out resident memory
// of the largest VM, charging swap IO and stalls to the faulting VM
// (Sec. 6 "hypervisors usually fallback to swapping"). 0 = unlimited.
func NewSystemWithMemory(seed uint64, hostBytes uint64) *System {
	return &System{
		Sched: sim.NewScheduler(),
		Model: costmodel.Default(),
		Pool:  hostmem.NewPool(hostBytes),
		RNG:   sim.NewRNG(seed),
	}
}

// SetTracer attaches a tracer to this system: it binds the tracer to the
// simulation clock (a tracer traces exactly one simulation; binding a
// second one panics) and wires the host pool's probe. VMs created
// afterwards instrument their EPT, virtio queues, and mechanism. A nil
// tracer is a no-op, so drivers can pass their -trace flag through
// unconditionally. Recording charges no simulated time and reads no
// randomness, so results are identical with tracing on or off.
func (s *System) SetTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	t.Bind(s.Sched.Clock())
	s.Trace = t
	s.Pool.SetTrace(t)
}

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.Sched.Now() }

// Run drives the event loop until the queue is empty.
func (s *System) Run() { s.Sched.Run() }

// RunUntil drives the event loop up to the deadline.
func (s *System) RunUntil(t sim.Time) { s.Sched.RunUntil(t) }

// Options configures one VM.
type Options struct {
	// Name identifies the VM (default "vm").
	Name string
	// Candidate selects the reclamation technique (default HyperAlloc).
	Candidate Candidate
	// Memory is the initial memory size (default 20 GiB).
	Memory uint64
	// MaxMemory, when larger than Memory, provisions extra guest-physical
	// address space that boots reclaimed: the VM starts at Memory but can
	// grow beyond it up to MaxMemory (the Sec. 6 "large guest-physical
	// memory but low hard limit" extension). 0 means MaxMemory = Memory.
	MaxMemory uint64
	// CPUs is the vCPU count (default 12, the paper's configuration).
	CPUs int
	// VFIO passes a DMA-capable device through to the VM. Rejected for
	// ballooning candidates (not DMA-safe) unless AllowUnsafeVFIO is set.
	VFIO bool
	// AllowUnsafeVFIO permits the unsafe balloon+VFIO combination (used
	// by the DMA-safety demonstrations).
	AllowUnsafeVFIO bool
	// Prepared populates all guest memory at boot (as after the paper's
	// SPEC warm-up) instead of on first touch.
	Prepared bool

	// AutoReclaim enables the candidate's automatic mode: HyperAlloc soft
	// reclamation, virtio-balloon free-page reporting, or the simulated
	// virtio-mem policy of Sec. 5.5.
	AutoReclaim bool
	// AutoPeriod overrides the automatic-mode period of whichever
	// mechanism is attached (HyperAlloc scan default 5 s; virtio-mem
	// policy default 1 s; virtio-balloon reporting delay default 2 s —
	// AutoPeriod takes precedence over ReportingDelay when both are set).
	// It is plumbed through the vmm attach options, so host-side policy
	// layers (the memory broker) can retune it per VM as well.
	AutoPeriod sim.Duration

	// ReportingOrder (o), ReportingDelay (d), and ReportingCapacity (c)
	// are virtio-balloon free-page-reporting parameters (defaults: o=9,
	// d=2 s, c=32 — the paper's default configuration). Pass -1 for
	// order 0 (single 4 KiB pages).
	ReportingOrder    int
	ReportingDelay    sim.Duration
	ReportingCapacity int

	// LLFreePolicy selects the tree-reservation policy for HyperAlloc
	// guests (default per-type; per-core reproduces original LLFree for
	// the ablation).
	LLFreePolicy llfree.ReservationPolicy
	// LLFreeTreeAreas overrides the tree size in areas (default 8).
	LLFreeTreeAreas int
}

func (o *Options) defaults() {
	if o.Name == "" {
		o.Name = "vm"
	}
	if o.Candidate == "" {
		o.Candidate = CandidateHyperAlloc
	}
	if o.Memory == 0 {
		o.Memory = 20 * mem.GiB
	}
	if o.CPUs == 0 {
		o.CPUs = 12
	}
	if o.MaxMemory < o.Memory {
		o.MaxMemory = o.Memory
	}
	if o.ReportingOrder == 0 {
		o.ReportingOrder = int(mem.HugeOrder)
	} else if o.ReportingOrder < 0 {
		o.ReportingOrder = 0
	}
	if o.ReportingDelay == 0 {
		o.ReportingDelay = 2 * sim.Second
	}
	if o.ReportingCapacity == 0 {
		o.ReportingCapacity = 32
	}
}

// VM is one simulated virtual machine. It embeds the monitor-side VM; the
// candidate-specific mechanism handles are exposed for introspection.
type VM struct {
	*vmm.VM
	Sys       *System
	Candidate Candidate

	// Exactly one of these is non-nil, matching Candidate (all nil for
	// the baseline).
	HyperAlloc *core.Mechanism
	Balloon    *balloon.Mechanism
	VirtioMem  *virtiomem.Mechanism
}

// dma32Bytes is the size of the DMA32/regular zone carved out of the VM's
// memory (the paper's virtio-mem setup uses 2 GiB of regular memory; the
// other candidates get the same split so zone handling is exercised
// everywhere).
const dma32Bytes = 2 * mem.GiB

// NewVM builds a VM of the given candidate on this system.
func (s *System) NewVM(opts Options) (*VM, error) {
	opts.defaults()
	if opts.Memory <= dma32Bytes {
		return nil, fmt.Errorf("hyperalloc: memory %s too small (need > %s)",
			mem.HumanBytes(opts.Memory), mem.HumanBytes(dma32Bytes))
	}
	if opts.VFIO && !opts.AllowUnsafeVFIO &&
		(opts.Candidate == CandidateBalloon || opts.Candidate == CandidateBalloonHuge) {
		return nil, fmt.Errorf("hyperalloc: %s is not DMA-safe; refusing VFIO (set AllowUnsafeVFIO to demonstrate the corruption)", opts.Candidate)
	}

	if opts.MaxMemory > opts.Memory && opts.Candidate == CandidateBaseline {
		return nil, fmt.Errorf("hyperalloc: baseline VMs cannot use MaxMemory (no mechanism to grow them)")
	}
	g, err := s.buildGuest(opts)
	if err != nil {
		return nil, err
	}
	meter := ledger.NewMeter(s.Sched.Clock())
	inner, err := vmm.NewVM(vmm.Config{
		Name:       opts.Name,
		Guest:      g,
		Meter:      meter,
		Model:      s.Model,
		Pool:       s.Pool,
		VFIO:       opts.VFIO,
		Mapped:     opts.Prepared,
		AutoPeriod: opts.AutoPeriod,
		Trace:      s.Trace,
	})
	if err != nil {
		return nil, err
	}
	vm := &VM{VM: inner, Sys: s, Candidate: opts.Candidate}

	switch opts.Candidate {
	case CandidateBaseline:
		// No mechanism; the VM cannot be resized.
	case CandidateHyperAlloc:
		m, err := core.New(inner)
		if err != nil {
			return nil, err
		}
		// The attach options already applied opts.AutoPeriod; only the
		// enable/disable decision is candidate-specific.
		if !opts.AutoReclaim {
			m.AutoPeriod = 0
		}
		vm.HyperAlloc = m
	case CandidateBalloon, CandidateBalloonHuge:
		m, err := balloon.New(inner, balloon.Config{
			Huge:              opts.Candidate == CandidateBalloonHuge,
			FreePageReporting: opts.AutoReclaim,
			ReportingOrder:    mem.Order(opts.ReportingOrder),
			ReportingDelay:    opts.ReportingDelay,
			ReportingCapacity: opts.ReportingCapacity,
		})
		if err != nil {
			return nil, err
		}
		vm.Balloon = m
	case CandidateVirtioMem:
		// The auto period arrives through the vmm attach options.
		m, err := virtiomem.New(inner, virtiomem.Config{
			SimulatedAuto: opts.AutoReclaim,
		})
		if err != nil {
			return nil, err
		}
		vm.VirtioMem = m
	default:
		return nil, fmt.Errorf("hyperalloc: unknown candidate %q", opts.Candidate)
	}
	if opts.MaxMemory > opts.Memory {
		// Boot with the headroom reclaimed: the hard limit starts at
		// Memory, and Grow can later raise it toward MaxMemory.
		meter.Freeze(true)
		err := vm.SetMemLimit(opts.Memory)
		meter.Freeze(false)
		meter.Ledger().Reset()
		if err != nil {
			return nil, fmt.Errorf("hyperalloc: reclaiming boot headroom: %w", err)
		}
	}
	return vm, nil
}

// buildGuest assembles the candidate's guest: LLFree zones for HyperAlloc,
// buddy zones for everything else, with virtio-mem's hotpluggable part in
// a Movable zone (the paper's 2 GiB regular + rest hotplug split).
func (s *System) buildGuest(opts Options) (*guest.Guest, error) {
	rest := opts.MaxMemory - dma32Bytes
	switch opts.Candidate {
	case CandidateHyperAlloc:
		mkZone := func(bytes uint64) (guest.ZoneSpec, error) {
			a, err := llfree.New(llfree.Config{
				Frames:    mem.BytesToFrames(bytes),
				Policy:    opts.LLFreePolicy,
				TreeAreas: opts.LLFreeTreeAreas,
				CPUs:      opts.CPUs,
			})
			if err != nil {
				return guest.ZoneSpec{}, err
			}
			adapter := guest.NewLLFreeAdapter(a)
			return guest.ZoneSpec{Bytes: bytes, Alloc: adapter, Impl: adapter}, nil
		}
		dma, err := mkZone(dma32Bytes)
		if err != nil {
			return nil, err
		}
		dma.Kind = mem.ZoneDMA32
		normal, err := mkZone(rest)
		if err != nil {
			return nil, err
		}
		normal.Kind = mem.ZoneNormal
		// DMA32 first so guest-physical layout matches x86 (low memory
		// first); HyperAlloc reclaims Normal before DMA32 (Sec. 4.2).
		return guest.New(opts.CPUs, dma, normal)
	case CandidateVirtioMem:
		mkZone := func(kind mem.ZoneKind, bytes uint64) (guest.ZoneSpec, error) {
			b, err := buddy.New(buddy.Config{Frames: mem.BytesToFrames(bytes), CPUs: opts.CPUs})
			if err != nil {
				return guest.ZoneSpec{}, err
			}
			return guest.ZoneSpec{Kind: kind, Bytes: bytes, Alloc: guest.NewBuddyAdapter(b), Impl: b}, nil
		}
		normal, err := mkZone(mem.ZoneNormal, dma32Bytes)
		if err != nil {
			return nil, err
		}
		movable, err := mkZone(mem.ZoneMovable, rest)
		if err != nil {
			return nil, err
		}
		return guest.New(opts.CPUs, normal, movable)
	default: // baseline and balloons
		mkZone := func(kind mem.ZoneKind, bytes uint64) (guest.ZoneSpec, error) {
			b, err := buddy.New(buddy.Config{Frames: mem.BytesToFrames(bytes), CPUs: opts.CPUs})
			if err != nil {
				return guest.ZoneSpec{}, err
			}
			return guest.ZoneSpec{Kind: kind, Bytes: bytes, Alloc: guest.NewBuddyAdapter(b), Impl: b}, nil
		}
		dma, err := mkZone(mem.ZoneDMA32, dma32Bytes)
		if err != nil {
			return nil, err
		}
		normal, err := mkZone(mem.ZoneNormal, rest)
		if err != nil {
			return nil, err
		}
		return guest.New(opts.CPUs, dma, normal)
	}
}

// StartAuto begins automatic reclamation on the system scheduler.
func (vm *VM) StartAuto() { vm.VM.StartAuto(vm.Sys.Sched) }

// StopAuto cancels automatic reclamation.
func (vm *VM) StopAuto() { vm.VM.StopAuto(vm.Sys.Sched) }

// NewPricingPolicy wires the Sec. 6 price-pressure policy to this VM: at
// every period the policy compares the current memory price with the
// cache's value, evicts the uneconomical part of the page cache, and runs
// the mechanism's reclamation pass so the freed memory leaves the bill.
// Start it with policy.Start(vm.Sys.Sched).
func (vm *VM) NewPricingPolicy(value pricing.CacheValue, priceFn func(sim.Time) pricing.Rate, period sim.Duration) *pricing.Policy {
	p := &pricing.Policy{
		GuestSide: vm.Guest,
		Value:     value,
		PriceFn:   priceFn,
		Period:    period,
	}
	if vm.Mech != nil {
		p.Mechanism = vm.Mech
	}
	return p
}
