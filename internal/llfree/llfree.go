// Package llfree implements the LLFree page-frame allocator (Wrenger et
// al., USENIX ATC '23) with the HyperAlloc extensions of the EuroSys '25
// paper: a per-huge-frame evicted hint, per-type tree reservations, and
// host-side reclaim/return transitions over the shared allocator state.
//
// The allocator is lock- and pointer-free: all state lives in three densely
// packed arrays (bit field, 16-bit area index, 32-bit tree index) that are
// mutated exclusively through atomic compare-and-swap, so a hypervisor can
// map the arrays and operate on them concurrently with the guest
// (Sec. 4.1/4.2 of the paper). In this Go port the "shared mapping" is a
// second *Alloc handle over the same backing slices (see Share).
//
// Layout
//
//   - bit field: one bit per base frame, 1 = allocated.
//   - area index: one 16-bit entry per huge frame (512 base frames):
//     bits 0-9   free-frame counter (0..512)
//     bit  10    huge-allocated flag (the guest part "A" of HyperAlloc)
//     bit  11    evicted hint      (the guest part "E" of HyperAlloc)
//     bits 12-15 unused ("five remaining bits"; one was taken for E)
//   - tree index: one 32-bit entry per tree (TreeAreas areas):
//     bits 0-14  free-frame counter (0..TreeAreas*512)
//     bit  15    reserved flag
//     bits 16-17 2-bit allocation-type field (HyperAlloc extension)
//     bit  18    type-valid flag
package llfree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"hyperalloc/internal/mem"
)

// Area-entry layout.
const (
	areaCounterBits = 10
	areaCounterMask = (1 << areaCounterBits) - 1
	areaHugeFlag    = 1 << 10
	areaEvictedFlag = 1 << 11
)

// Tree-entry layout.
const (
	treeCounterBits = 15
	treeCounterMask = (1 << treeCounterBits) - 1
	treeReservedBit = 1 << 15
	treeTypeShift   = 16
	treeTypeMask    = 0x3 << treeTypeShift
	treeTypeValid   = 1 << 18
)

// DefaultTreeAreas is the tree size used by HyperAlloc: 8 areas = 16 MiB
// (reduced from the original LLFree's 32 areas = 64 MiB to make the
// reservation policy more accurate, Sec. 4.2).
const DefaultTreeAreas = 8

// ReservationPolicy selects how trees are reserved for allocation streams.
type ReservationPolicy uint8

const (
	// PerType reserves one tree per allocation type (unmovable, movable,
	// huge). This is the HyperAlloc policy; it separates lifetimes into
	// different trees and reduces huge-frame fragmentation (Sec. 4.2).
	PerType ReservationPolicy = iota
	// PerCore reserves one tree per CPU, ignoring the allocation type.
	// This is the original LLFree policy, kept for the ablation benchmark.
	PerCore
)

// String implements fmt.Stringer.
func (p ReservationPolicy) String() string {
	if p == PerCore {
		return "per-core"
	}
	return "per-type"
}

// Config parameterizes an allocator instance.
type Config struct {
	// Frames is the number of managed base frames. It does not have to be
	// a multiple of the huge-frame size; trailing frames of a partial area
	// are marked permanently allocated.
	Frames uint64
	// TreeAreas is the number of areas per tree (default DefaultTreeAreas).
	TreeAreas int
	// Policy selects the reservation policy (default PerType).
	Policy ReservationPolicy
	// CPUs is the number of CPUs for the PerCore policy (default 1).
	CPUs int
}

// Exported errors.
var (
	// ErrOutOfMemory reports that no frame of the requested order and
	// alignment is free.
	ErrOutOfMemory = errors.New("llfree: out of memory")
	// ErrRetry reports that a lock-free operation lost too many races and
	// should be retried by the caller (never returned in practice; kept to
	// surface livelock bugs in tests).
	ErrRetry = errors.New("llfree: retry")
	// ErrBadState reports an invalid state transition, e.g. freeing a
	// frame that is not allocated or reclaiming a non-free huge frame.
	ErrBadState = errors.New("llfree: invalid state transition")
	// ErrBadFrame reports an out-of-range or misaligned frame number.
	ErrBadFrame = errors.New("llfree: bad frame")
)

// Frame is the result of an allocation. Evicted reports that the huge frame
// backing the allocation carries the evicted hint (E=1): the caller must
// trigger the hypervisor's install operation before using the memory
// (install-on-allocate, Sec. 3.2).
type Frame struct {
	PFN     mem.PFN
	Evicted bool
}

// Alloc is an LLFree allocator instance. All methods are safe for
// concurrent use by multiple goroutines and by a hypervisor-side handle
// created with Share.
type Alloc struct {
	frames    uint64
	areas     uint64 // number of areas (huge frames), incl. partial tail
	trees     uint64
	treeAreas uint64
	policy    ReservationPolicy
	cpus      int

	bitfield []atomic.Uint64 // 1 bit per frame, 1 = allocated
	areaIdx  []atomic.Uint64 // 4 x 16-bit entries per word
	treeIdx  []atomic.Uint32 // 1 entry per tree

	// reservations: PerType => one slot per mem.AllocType;
	// PerCore => one slot per CPU. Packed: bit 63 valid, low 32 tree index.
	reservations []atomic.Uint64
}

const (
	resValid = uint64(1) << 63
)

// New creates an allocator over cfg.Frames base frames, all free.
func New(cfg Config) (*Alloc, error) {
	if cfg.Frames == 0 {
		return nil, fmt.Errorf("llfree: config with zero frames")
	}
	treeAreas := cfg.TreeAreas
	if treeAreas == 0 {
		treeAreas = DefaultTreeAreas
	}
	if treeAreas < 1 || uint64(treeAreas)*mem.FramesPerHuge > treeCounterMask {
		return nil, fmt.Errorf("llfree: unsupported tree size %d areas", treeAreas)
	}
	cpus := cfg.CPUs
	if cpus <= 0 {
		cpus = 1
	}
	areas := (cfg.Frames + mem.FramesPerHuge - 1) / mem.FramesPerHuge
	trees := (areas + uint64(treeAreas) - 1) / uint64(treeAreas)
	// The bit field covers whole areas: the claim and count paths walk
	// all of an area's words, the partial tail area's included.
	a := &Alloc{
		frames:    cfg.Frames,
		areas:     areas,
		trees:     trees,
		treeAreas: uint64(treeAreas),
		policy:    cfg.Policy,
		cpus:      cpus,
		bitfield:  make([]atomic.Uint64, areas*wordsPerArea),
		areaIdx:   make([]atomic.Uint64, (areas+3)/4),
		treeIdx:   make([]atomic.Uint32, trees),
	}
	slots := int(mem.NumAllocTypes)
	if cfg.Policy == PerCore {
		slots = cpus
	}
	a.reservations = make([]atomic.Uint64, slots)

	// Initialize area counters; the partial tail area gets a reduced
	// counter, and frames beyond cfg.Frames are marked allocated so the
	// bit field and counters stay consistent.
	for area := uint64(0); area < areas; area++ {
		start := area * mem.FramesPerHuge
		free := uint64(mem.FramesPerHuge)
		if start+free > cfg.Frames {
			free = cfg.Frames - start
			for f := cfg.Frames; f < start+mem.FramesPerHuge; f++ {
				a.bitfield[f/64].Store(a.bitfield[f/64].Load() | 1<<(f%64))
			}
		}
		a.areaStore(area, uint16(free))
	}
	// Tree counters.
	for tree := uint64(0); tree < trees; tree++ {
		var free uint64
		first := tree * a.treeAreas
		last := min(first+a.treeAreas, areas)
		for area := first; area < last; area++ {
			free += uint64(a.areaLoad(area) & areaCounterMask)
		}
		a.treeIdx[tree].Store(uint32(free))
	}
	return a, nil
}

// Share returns a second handle over the same allocator state. This models
// the monitor mapping the guest's allocator metadata into its own address
// space and constructing a "cloned LLFree object that works on the shared
// state" (Sec. 4.2). Both handles may be used concurrently.
func (a *Alloc) Share() *Alloc {
	clone := *a
	return &clone
}

// Frames returns the number of managed base frames.
func (a *Alloc) Frames() uint64 { return a.frames }

// Areas returns the number of areas (huge frames), including a partial
// tail area.
func (a *Alloc) Areas() uint64 { return a.areas }

// Trees returns the number of trees.
func (a *Alloc) Trees() uint64 { return a.trees }

// TreeAreas returns the number of areas per tree.
func (a *Alloc) TreeAreas() uint64 { return a.treeAreas }

// Policy returns the reservation policy.
func (a *Alloc) Policy() ReservationPolicy { return a.policy }

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
