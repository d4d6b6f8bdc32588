// Package hostmem tracks host-physical memory across all VMs of one
// simulated host: per-VM resident-set sizes, the aggregate, its peak, and
// the host-level swap fallback used when guests overcommit physical
// memory (paper Sec. 6: "hypervisors usually fallback to swapping").
//
// Evicted bytes land on a per-VM swap Backend (tier): local NVMe by
// default, a compressed in-RAM tier, or far memory over the migration
// link. The pool does all per-VM bookkeeping; backends account stored
// bytes, price IO, and may charge pool capacity for what they hold (the
// compressed tier stores at a ratio).
package hostmem

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"hyperalloc/internal/costmodel"
	"hyperalloc/internal/trace"
)

// entry is one VM's unified accounting record: its name, resident bytes,
// the tier its future evictions land on, and its swapped-out bytes per
// tier (debt drains lowest-tier-first on swap-in). One struct per VM —
// RSS and swap can never disagree about which VMs exist.
type entry struct {
	name    string
	rss     uint64
	tier    Tier
	swapped [NumTiers]uint64
}

// debt returns the VM's total swapped-out bytes across tiers.
func (e *entry) debt() uint64 {
	var n uint64
	for t := Tier(0); t < NumTiers; t++ {
		n += e.swapped[t]
	}
	return n
}

// Pool is the host memory pool.
type Pool struct {
	capacity    uint64
	backends    [NumTiers]Backend
	defaultTier Tier
	total       uint64
	peak        uint64

	// vms finds a VM's entry by name; order holds the same entries
	// sorted by name, so the per-swap scans (victim choice, freeable
	// bytes) walk a slice in a fixed order instead of ranging the map.
	vms   map[string]*entry
	order []*entry

	// SwapOutBytes / SwapInBytes count host swap traffic over the pool's
	// lifetime, summed across tiers.
	SwapOutBytes uint64
	SwapInBytes  uint64

	tp *poolProbe // nil unless SetTrace wired a tracer
}

// poolProbe mirrors the pool into a tracer: a live aggregate gauge,
// swap-traffic counters (aggregate and per tier, the latter created on
// first traffic), and eviction/swap-in instants naming the VMs involved —
// the timeline view of "who paged out whom, to where".
type poolProbe struct {
	track   *trace.Track
	reg     *trace.Registry
	total   *trace.Gauge
	swapOut *trace.Counter
	swapIn  *trace.Counter
	tierOut [NumTiers]*trace.Counter
	tierIn  [NumTiers]*trace.Counter
}

func (tp *poolProbe) outCounter(t Tier) *trace.Counter {
	if tp.tierOut[t] == nil {
		tp.tierOut[t] = tp.reg.Counter("host/mem/tier/" + t.String() + "/out_bytes")
	}
	return tp.tierOut[t]
}

func (tp *poolProbe) inCounter(t Tier) *trace.Counter {
	if tp.tierIn[t] == nil {
		tp.tierIn[t] = tp.reg.Counter("host/mem/tier/" + t.String() + "/in_bytes")
	}
	return tp.tierIn[t]
}

// SetTrace attaches tracing under the "host/mem" track. A nil tracer
// detaches.
func (p *Pool) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		p.tp = nil
		return
	}
	reg := tr.Registry()
	p.tp = &poolProbe{
		track:   tr.Track("host/mem"),
		reg:     reg,
		total:   reg.Gauge("host/mem/total_bytes"),
		swapOut: reg.Counter("host/mem/swap_out_bytes"),
		swapIn:  reg.Counter("host/mem/swap_in_bytes"),
	}
	p.tp.total.Set(int64(p.total))
}

// NewPool creates a pool with the given capacity in bytes (0 = unlimited)
// and the default backend set (all VMs on the NVMe tier).
func NewPool(capacity uint64) *Pool {
	return &Pool{
		capacity: capacity,
		vms:      make(map[string]*entry),
		backends: DefaultBackends(),
	}
}

// SetBackend replaces the backend serving a tier. Only allowed while the
// tier holds nothing, so stored bytes can't silently change accounting.
func (p *Pool) SetBackend(t Tier, b Backend) {
	if b == nil {
		panic("hostmem: SetBackend(nil)")
	}
	for _, e := range p.order {
		if e.swapped[t] != 0 {
			panic(fmt.Sprintf("hostmem: SetBackend(%s) with %d bytes of %q stored", t, e.swapped[t], e.name))
		}
	}
	p.backends[t] = b
}

// Backend returns the backend serving a tier.
func (p *Pool) Backend(t Tier) Backend { return p.backends[t] }

// SetDefaultTier sets the tier assigned to VMs the pool has not seen
// before. Existing entries keep their assignment.
func (p *Pool) SetDefaultTier(t Tier) {
	if t >= NumTiers {
		panic("hostmem: SetDefaultTier out of range")
	}
	p.defaultTier = t
}

// SetTier assigns the VM's eviction tier (a broker decision). Bytes
// already swapped stay on their current tier and drain from there; only
// future evictions land on the new one. Registers unknown VMs, so the
// broker can place a tier choice before the VM populates.
func (p *Pool) SetTier(vm string, t Tier) {
	if t >= NumTiers {
		panic("hostmem: SetTier out of range")
	}
	p.ent(vm).tier = t
}

// TierOf returns the VM's assigned eviction tier (the default tier for
// unknown VMs).
func (p *Pool) TierOf(vm string) Tier {
	if e := p.vms[vm]; e != nil {
		return e.tier
	}
	return p.defaultTier
}

// ent returns the VM's entry, registering it with the default tier when
// missing. Only mutating success paths call this: failed calls must not
// register.
func (p *Pool) ent(vm string) *entry {
	e := p.vms[vm]
	if e == nil {
		e = &entry{name: vm, tier: p.defaultTier}
		p.insert(e)
	}
	return e
}

// insert registers an entry under its name in both the map and the
// name-sorted order.
func (p *Pool) insert(e *entry) {
	p.vms[e.name] = e
	i, _ := p.orderIndex(e.name)
	p.order = slices.Insert(p.order, i, e)
}

// unlink removes a registered VM's entry from both the map and the
// order.
func (p *Pool) unlink(vm string) {
	delete(p.vms, vm)
	if i, ok := p.orderIndex(vm); ok {
		p.order = slices.Delete(p.order, i, i+1)
	}
}

// orderIndex returns the position of the VM's entry in the name-sorted
// order, or where it would be inserted, and whether it is there.
func (p *Pool) orderIndex(vm string) (int, bool) {
	return slices.BinarySearchFunc(p.order, vm, func(e *entry, name string) int {
		return strings.Compare(e.name, name)
	})
}

// Adjust changes the RSS of the named VM by delta bytes (negative to
// release). Growing beyond the capacity makes the host swap out pages of
// another VM (largest RSS first) to make room: the returned IO is the
// per-tier swap traffic the caller must charge (Pool.IOCost prices it).
// Releases cancel the VM's own swap debt first (the freed pages would
// have been the swapped ones), draining lower tiers first. A failed call
// leaves the pool unchanged: feasibility is checked before any state is
// touched.
func (p *Pool) Adjust(vm string, delta int64) (IO, error) {
	var io IO
	e := p.vms[vm]
	if delta < 0 {
		d := uint64(-delta)
		var have uint64
		if e != nil {
			have = e.rss + e.debt()
		}
		if d > have {
			return io, fmt.Errorf("hostmem: vm %q releasing %d of %d bytes", vm, d, have)
		}
		for t := Tier(0); t < NumTiers && d > 0; t++ {
			take := min(e.swapped[t], d)
			if take == 0 {
				continue
			}
			p.discard(e, t, take)
			d -= take
		}
		e.rss -= d
		p.total -= d
		if p.tp != nil {
			p.tp.total.Set(int64(p.total))
		}
		return io, nil
	}
	d := uint64(delta)
	if p.capacity != 0 && p.total+d > p.capacity {
		// Host swap: evict from the largest-RSS other VM until the new
		// pages fit. Eviction can free at most the freeable bytes (resident
		// minus the capacity charge eviction itself would add on a
		// compressed tier), so an infeasible request fails before anything
		// is swapped.
		need := p.total + d - p.capacity
		if maxFree := p.maxFreeable(); need > maxFree {
			return io, fmt.Errorf("hostmem: cannot swap %d bytes (%d freeable)", need, maxFree)
		}
		if freed := p.swapOut(vm, need, &io); freed < need {
			return io, fmt.Errorf("hostmem: cannot swap %d bytes (freed %d)", need, freed)
		}
	}
	e = p.ent(vm)
	e.rss += d
	p.total += d
	if p.total > p.peak {
		p.peak = p.total
	}
	if p.tp != nil {
		p.tp.total.Set(int64(p.total))
	}
	return io, nil
}

// SwapIn faults some of the VM's swapped-out bytes back into residency.
// The host evicted those pages without knowing they were part of the
// guest's working set (the paper's core argument against host swapping),
// so an active guest keeps major-faulting on them: callers invoke SwapIn
// paced by how much memory the guest touches (limit bytes), and the
// faulted amount is the touched volume scaled by the fraction of the
// VM's pages that are on swap — touching n bytes hits n·debt/(rss+debt)
// swapped ones in expectation (computed in 128-bit integer math so spans
// beyond 2^53 bytes stay exact). Debt drains lower tiers first.
// Faulted-in pages consume physical memory again and may evict further
// pages from other VMs. The returned IO is the total per-tier swap
// traffic (read-in plus induced write-out) the caller must charge.
func (p *Pool) SwapIn(vm string, limit uint64) (IO, error) {
	var io IO
	e := p.vms[vm]
	if e == nil || limit == 0 {
		return io, nil
	}
	debt := e.debt()
	if debt == 0 {
		return io, nil
	}
	span := e.rss + debt
	// back = limit * debt / span, exactly. debt <= span, so the quotient
	// is at most limit and Div64 cannot overflow.
	hi, lo := bits.Mul64(limit, debt)
	back, _ := bits.Div64(hi, lo, span)
	if back > debt {
		back = debt
	}
	if back == 0 {
		return io, nil
	}
	if p.capacity != 0 && p.total+back > p.capacity {
		need := p.total + back - p.capacity
		// As in Adjust: reject infeasible requests before mutating, so a
		// failed swap-in leaves the pool unchanged.
		if maxFree := p.maxFreeable(); need > maxFree {
			return io, fmt.Errorf("hostmem: cannot swap %d bytes (%d freeable)", need, maxFree)
		}
		if freed := p.swapOut(vm, need, &io); freed < need {
			return io, fmt.Errorf("hostmem: cannot swap %d bytes (freed %d)", need, freed)
		}
	}
	rem := back
	for t := Tier(0); t < NumTiers && rem > 0; t++ {
		take := min(e.swapped[t], rem)
		if take == 0 {
			continue
		}
		b := p.backends[t]
		before := b.Charge(e.swapped[t])
		e.swapped[t] -= take
		p.total -= before - b.Charge(e.swapped[t])
		b.SwapIn(take)
		p.SwapInBytes += take
		io.In[t] += take
		rem -= take
		if p.tp != nil {
			p.tp.swapIn.Add(take)
			p.tp.inCounter(t).Add(take)
			p.tp.track.Instant("swap_in",
				trace.String("vm", vm), trace.String("tier", t.String()), trace.Uint("bytes", take))
		}
	}
	e.rss += back
	p.total += back
	if p.total > p.peak {
		p.peak = p.total
	}
	if p.tp != nil {
		p.tp.total.Set(int64(p.total))
	}
	return io, nil
}

// discard drops b swapped bytes of the VM on tier t without a read-back
// (release or teardown), refunding any capacity charge the backend held.
func (p *Pool) discard(e *entry, t Tier, b uint64) {
	bk := p.backends[t]
	before := bk.Charge(e.swapped[t])
	e.swapped[t] -= b
	p.total -= before - bk.Charge(e.swapped[t])
	bk.Discard(b)
}

// swapOut frees `need` bytes of pool capacity by pushing resident bytes
// of the largest-RSS VM to that VM's tier. The faulting VM is spared
// while any other VM has resident pages (its own pages are the most
// recently used), and RSS ties break on the lexicographically smaller
// name so eviction order is deterministic. On a compressed tier the
// freed capacity is less than the evicted bytes (the stored copy charges
// the pool), so the loop runs on freed capacity, not bytes moved.
func (p *Pool) swapOut(faulter string, need uint64, io *IO) uint64 {
	var freed uint64
	for freed < need {
		victim := p.pickVictim(faulter)
		if victim == nil {
			victim = p.vms[faulter]
		}
		if victim == nil || victim.rss == 0 {
			break
		}
		take := min(victim.rss, need-freed)
		t := victim.tier
		b := p.backends[t]
		before := b.Charge(victim.swapped[t])
		victim.rss -= take
		victim.swapped[t] += take
		charged := b.Charge(victim.swapped[t]) - before
		p.total -= take - charged
		b.SwapOut(take)
		p.SwapOutBytes += take
		io.Out[t] += take
		freed += take - charged
		if p.tp != nil {
			p.tp.swapOut.Add(take)
			p.tp.outCounter(t).Add(take)
			p.tp.total.Set(int64(p.total))
			p.tp.track.Instant("swap_out",
				trace.String("faulter", faulter), trace.String("victim", victim.name),
				trace.String("tier", t.String()), trace.Uint("bytes", take))
		}
	}
	return freed
}

// pickVictim returns the largest-RSS VM other than the faulter (nil if
// none has resident pages), breaking ties on the smaller name: entries
// are name-sorted, so the first of equal RSS is kept.
func (p *Pool) pickVictim(faulter string) *entry {
	var best *entry
	for _, e := range p.order {
		if e.rss == 0 || e.name == faulter {
			continue
		}
		if best == nil || e.rss > best.rss {
			best = e
		}
	}
	return best
}

// maxFreeable returns the pool capacity that full eviction of every VM
// would free: each VM's resident bytes minus the capacity charge its
// tier's backend would take for storing them (exact — per-chunk charges
// telescope to the same total).
func (p *Pool) maxFreeable() uint64 {
	var n uint64
	for _, e := range p.order {
		b := p.backends[e.tier]
		n += e.rss - (b.Charge(e.swapped[e.tier]+e.rss) - b.Charge(e.swapped[e.tier]))
	}
	return n
}

// IOCost prices one operation's per-tier swap traffic through the
// backends. With everything on the NVMe tier this equals SwapCost over
// the total bytes — the pre-tier charge, bit-identically.
func (p *Pool) IOCost(m *costmodel.Model, io IO) time.Duration {
	var cost time.Duration
	for t := Tier(0); t < NumTiers; t++ {
		if io.Out[t] != 0 || io.In[t] != 0 {
			cost += p.backends[t].IOCost(m, io.Out[t], io.In[t])
		}
	}
	return cost
}

// Remove deletes the named VM's accounting entirely: its resident bytes
// leave the pool and its swap debt is dropped (the swap slots are freed,
// nothing is read back). This is the source-side teardown after a live
// migration — without it a migrated-away VM would leak its RSS entry —
// and doubles as VM shutdown. Returns the resident and swapped bytes
// removed; unknown VMs remove nothing.
func (p *Pool) Remove(vm string) (rss, swapped uint64) {
	if e := p.vms[vm]; e != nil {
		rss, swapped = e.rss, e.debt()
		for t := Tier(0); t < NumTiers; t++ {
			if e.swapped[t] > 0 {
				p.discard(e, t, e.swapped[t])
			}
		}
		p.unlink(vm)
		p.total -= rss
	}
	if p.tp != nil {
		p.tp.total.Set(int64(p.total))
		p.tp.track.Instant("remove",
			trace.String("vm", vm), trace.Uint("rss", rss), trace.Uint("swapped", swapped))
	}
	return rss, swapped
}

// Rename moves a VM's accounting to a new name, preserving RSS, tier
// assignment and swap debt. Migration uses it on the destination host:
// the VM arrives under a transfer alias while the source still owns the
// real name, and cut-over renames the alias to the real name. Fails
// without touching the pool if the old name is unknown or the new name
// is already registered. A VM fully on swap is an entry like any other —
// the single entry map cannot lose it.
func (p *Pool) Rename(from, to string) error {
	if from == to {
		return nil
	}
	e := p.vms[from]
	if e == nil {
		return fmt.Errorf("hostmem: rename: unknown vm %q", from)
	}
	if _, ok := p.vms[to]; ok {
		return fmt.Errorf("hostmem: rename: vm %q already registered", to)
	}
	p.unlink(from)
	e.name = to
	p.insert(e)
	if p.tp != nil {
		p.tp.track.Instant("rename", trace.String("from", from), trace.String("to", to))
	}
	return nil
}

// Swapped returns the VM's swapped-out bytes across all tiers.
func (p *Pool) Swapped(vm string) uint64 {
	if e := p.vms[vm]; e != nil {
		return e.debt()
	}
	return 0
}

// SwappedOn returns the VM's swapped-out bytes on one tier.
func (p *Pool) SwappedOn(vm string, t Tier) uint64 {
	if e := p.vms[vm]; e != nil {
		return e.swapped[t]
	}
	return 0
}

// Registered reports whether the pool carries an accounting entry
// (resident or swapped, possibly zero-valued) under the name. Migration
// transfer aliases register with a zero-byte Adjust before any bytes
// arrive, so presence is not the same as RSS() > 0.
func (p *Pool) Registered(vm string) bool {
	_, ok := p.vms[vm]
	return ok
}

// TotalSwapped returns the swapped-out bytes across all VMs and tiers.
func (p *Pool) TotalSwapped() uint64 {
	var n uint64
	for _, e := range p.order {
		n += e.debt()
	}
	return n
}

func min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// RSS returns the resident-set size of the named VM.
func (p *Pool) RSS(vm string) uint64 {
	if e := p.vms[vm]; e != nil {
		return e.rss
	}
	return 0
}

// Total returns the pool's occupied capacity: aggregate RSS plus any
// capacity charged by in-RAM backends for stored bytes. With everything
// on device tiers this is exactly the aggregate RSS.
func (p *Pool) Total() uint64 { return p.total }

// Peak returns the highest occupied capacity observed.
func (p *Pool) Peak() uint64 { return p.peak }

// Capacity returns the configured capacity (0 = unlimited).
func (p *Pool) Capacity() uint64 { return p.capacity }

// VMs returns the registered VM names, sorted. Every entry counts —
// including VMs whose RSS is fully on swap.
func (p *Pool) VMs() []string {
	names := make([]string, len(p.order))
	for i, e := range p.order {
		names[i] = e.name
	}
	return names
}

// ResetPeak sets the peak to the current total.
func (p *Pool) ResetPeak() { p.peak = p.total }

// Validate checks the pool's accounting: the aggregate equals the per-VM
// RSS sum plus per-VM backend charges, the peak never trails the current
// total, a finite capacity is respected, per-tier stored bytes match the
// backends' own counters exactly (out = stored + in + discarded), and
// the swap ledger balances (swap-ins plus pages still on swap never
// exceed the bytes ever swapped out; releases may cancel swap debt
// without a swap-in, so this is an inequality). Returns the first
// violation found, nil if consistent. It also checks that the name-sorted
// order holds exactly the registered entries.
func (p *Pool) Validate() error {
	if len(p.order) != len(p.vms) {
		return fmt.Errorf("hostmem: %d VMs in the sorted order, %d registered", len(p.order), len(p.vms))
	}
	for i, e := range p.order {
		if p.vms[e.name] != e {
			return fmt.Errorf("hostmem: ordered entry %q is not the registered one", e.name)
		}
		if i > 0 && p.order[i-1].name >= e.name {
			return fmt.Errorf("hostmem: order not sorted at %q", e.name)
		}
	}
	var want uint64
	var perTier [NumTiers]uint64
	for _, e := range p.order {
		want += e.rss
		for t := Tier(0); t < NumTiers; t++ {
			perTier[t] += e.swapped[t]
			want += p.backends[t].Charge(e.swapped[t])
		}
	}
	if want != p.total {
		return fmt.Errorf("hostmem: total=%d but per-VM RSS+charges sum to %d", p.total, want)
	}
	if p.peak < p.total {
		return fmt.Errorf("hostmem: peak=%d below total=%d", p.peak, p.total)
	}
	if p.capacity != 0 && p.total > p.capacity {
		return fmt.Errorf("hostmem: total=%d exceeds capacity=%d", p.total, p.capacity)
	}
	var out, in uint64
	for t := Tier(0); t < NumTiers; t++ {
		b := p.backends[t]
		if b.Stored() != perTier[t] {
			return fmt.Errorf("hostmem: tier %s stores %d but per-VM sum is %d", t, b.Stored(), perTier[t])
		}
		tr := b.Traffic()
		if tr.OutBytes != b.Stored()+tr.InBytes+tr.DiscardBytes {
			return fmt.Errorf("hostmem: tier %s ledger: out %d != stored %d + in %d + discarded %d",
				t, tr.OutBytes, b.Stored(), tr.InBytes, tr.DiscardBytes)
		}
		out += tr.OutBytes
		in += tr.InBytes
	}
	if out != p.SwapOutBytes || in != p.SwapInBytes {
		return fmt.Errorf("hostmem: aggregate swap traffic out/in %d/%d but tiers sum to %d/%d",
			p.SwapOutBytes, p.SwapInBytes, out, in)
	}
	if still := p.TotalSwapped(); still+p.SwapInBytes > p.SwapOutBytes {
		return fmt.Errorf("hostmem: swap ledger: %d on swap + %d swapped in > %d swapped out",
			still, p.SwapInBytes, p.SwapOutBytes)
	}
	return nil
}
