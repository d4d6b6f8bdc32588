package hostmem

import (
	"fmt"
	"time"

	"hyperalloc/internal/costmodel"
)

// Tier identifies one of the pool's swap backend slots. Evicted bytes of
// a VM land on the VM's assigned tier; the broker chooses tiers per VM as
// a policy decision (inflate vs. swap-to-tier vs. migrate).
type Tier uint8

const (
	// TierNVMe is the local NVMe-class swap device: today's behaviour and
	// the default. Stored bytes occupy no pool capacity; IO moves at the
	// costmodel's SwapGiBs.
	TierNVMe Tier = iota
	// TierZswap is a compressed in-RAM tier (zswap-like): stored bytes
	// count against the pool's capacity at a compression ratio, and IO is
	// compression work, far cheaper than a device.
	TierZswap
	// TierFar is remote far memory reached over the migration link model
	// (MigLinkGiBs bandwidth plus MigRTT per transfer direction).
	TierFar
	// NumTiers bounds the tier enum; per-tier arrays are indexed [0,NumTiers).
	NumTiers
)

// String returns the tier's short name ("nvme", "zswap", "far").
func (t Tier) String() string {
	switch t {
	case TierNVMe:
		return "nvme"
	case TierZswap:
		return "zswap"
	case TierFar:
		return "far"
	}
	return fmt.Sprintf("tier%d", uint8(t))
}

// TierNames returns the short names of all tiers, in tier order.
func TierNames() []string {
	names := make([]string, NumTiers)
	for t := Tier(0); t < NumTiers; t++ {
		names[t] = t.String()
	}
	return names
}

// ParseTier resolves a short tier name from a flag value.
func ParseTier(s string) (Tier, error) {
	for t := Tier(0); t < NumTiers; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("hostmem: unknown tier %q (want one of %v)", s, TierNames())
}

// IO is the per-tier swap traffic of one pool operation: Out[t] bytes
// were evicted to tier t, In[t] bytes were faulted back from it. The
// caller charges it through Pool.IOCost — per-tier sums are kept separate
// because each backend prices its bytes differently.
type IO struct {
	Out [NumTiers]uint64
	In  [NumTiers]uint64
}

// Bytes returns the total traffic across all tiers and both directions
// (the amount that crosses the memory bus).
func (io IO) Bytes() uint64 {
	var n uint64
	for t := Tier(0); t < NumTiers; t++ {
		n += io.Out[t] + io.In[t]
	}
	return n
}

// Traffic is a backend's lifetime byte counters.
type Traffic struct {
	OutBytes     uint64 // bytes ever swapped out to this backend
	InBytes      uint64 // bytes ever faulted back in
	DiscardBytes uint64 // bytes dropped without a read-back (release/remove)
}

// Backend is a pluggable destination for evicted bytes. Backends are
// cost models, not mechanisms (Virtuoso's argument): they account stored
// bytes, price IO, and count lifetime traffic; the pool does the actual
// per-VM bookkeeping.
type Backend interface {
	// Name is the backend's short name for flags, traces and reports.
	Name() string
	// Charge returns how many bytes of pool capacity holding `stored`
	// bytes on this backend consumes (0 for device tiers; stored/ratio
	// for a compressed in-RAM tier).
	Charge(stored uint64) uint64
	// IOCost prices one operation's traffic: out bytes written to the
	// backend plus in bytes read back.
	IOCost(m *costmodel.Model, out, in uint64) time.Duration
	// SwapOut / SwapIn / Discard maintain the backend's stored-byte and
	// lifetime traffic counters. The pool calls them; they never fail
	// (backend space is unbounded, as host swap was before).
	SwapOut(b uint64)
	SwapIn(b uint64)
	Discard(b uint64)
	// Stored returns the bytes currently held by this backend.
	Stored() uint64
	// Traffic returns the lifetime byte counters.
	Traffic() Traffic
}

// counters is the shared Backend bookkeeping: stored bytes plus lifetime
// traffic.
type counters struct {
	stored uint64
	tr     Traffic
}

func (c *counters) SwapOut(b uint64) { c.stored += b; c.tr.OutBytes += b }
func (c *counters) SwapIn(b uint64)  { c.stored -= b; c.tr.InBytes += b }
func (c *counters) Discard(b uint64) { c.stored -= b; c.tr.DiscardBytes += b }
func (c *counters) Stored() uint64   { return c.stored }
func (c *counters) Traffic() Traffic { return c.tr }

// NVMe is the local swap device: free to hold, SwapGiBs to move. This is
// the pool's default backend and reproduces the pre-tier behaviour
// bit-identically (IO cost is SwapCost over the operation's total bytes).
type NVMe struct{ counters }

// NewNVMe returns a local NVMe-class swap backend.
func NewNVMe() *NVMe { return &NVMe{} }

func (*NVMe) Name() string                { return TierNVMe.String() }
func (*NVMe) Charge(stored uint64) uint64 { return 0 }
func (*NVMe) IOCost(m *costmodel.Model, out, in uint64) time.Duration {
	return m.SwapCost(out + in)
}

// DefaultZswapRatio is the compression ratio assumed for the zswap tier:
// zsmalloc pools on server workloads typically hold ~3x their stored
// size (the kernel's zswap documentation cites ~2-3x for lzo/lz4).
const DefaultZswapRatio = 3

// Zswap is a compressed in-RAM tier: stored bytes occupy pool capacity at
// 1/ratio (ceil — a stored byte never rounds to free), and IO costs
// compression work instead of device time.
type Zswap struct {
	counters
	ratio uint64
}

// NewZswap returns a compressed in-RAM backend with the given compression
// ratio (must be >= 2, or compression would be pointless and the pool's
// eviction loop could stop making progress).
func NewZswap(ratio uint64) *Zswap {
	if ratio < 2 {
		panic("hostmem: zswap ratio must be >= 2")
	}
	return &Zswap{ratio: ratio}
}

func (*Zswap) Name() string { return TierZswap.String() }
func (z *Zswap) Charge(stored uint64) uint64 {
	return (stored + z.ratio - 1) / z.ratio
}
func (z *Zswap) IOCost(m *costmodel.Model, out, in uint64) time.Duration {
	return m.ZswapCompressCost(out) + m.ZswapDecompressCost(in)
}

// FarMemory is a remote memory tier reached over the migration link: free
// to hold locally, but every transfer pays link bandwidth plus one RTT
// per direction used (the demand-fetch shape of post-copy migration).
type FarMemory struct{ counters }

// NewFarMemory returns a far-memory backend over the migration link model.
func NewFarMemory() *FarMemory { return &FarMemory{} }

func (*FarMemory) Name() string                { return TierFar.String() }
func (*FarMemory) Charge(stored uint64) uint64 { return 0 }
func (*FarMemory) IOCost(m *costmodel.Model, out, in uint64) time.Duration {
	cost := m.MigLinkCost(out + in)
	if out > 0 {
		cost += m.MigRTT
	}
	if in > 0 {
		cost += m.MigRTT
	}
	return cost
}

// DefaultBackends returns the standard backend set, one per tier.
func DefaultBackends() [NumTiers]Backend {
	return [NumTiers]Backend{
		TierNVMe:  NewNVMe(),
		TierZswap: NewZswap(DefaultZswapRatio),
		TierFar:   NewFarMemory(),
	}
}
