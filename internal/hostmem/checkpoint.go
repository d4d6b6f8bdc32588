package hostmem

import "fmt"

// VMState is one VM's serialized pool accounting.
type VMState struct {
	Name    string
	RSS     uint64
	Tier    uint8
	Swapped [NumTiers]uint64
}

// BackendState is one tier's backend counters.
type BackendState struct {
	Stored  uint64
	Traffic Traffic
}

// PoolState is the serializable state of a Pool.
type PoolState struct {
	Capacity     uint64
	DefaultTier  uint8
	Total        uint64
	Peak         uint64
	SwapOutBytes uint64
	SwapInBytes  uint64
	VMs          []VMState `json:",omitempty"`
	Backends     [NumTiers]BackendState
}

// restoreCounters is implemented by every built-in backend through the
// embedded counters struct.
type restorableBackend interface {
	restoreCounters(stored uint64, tr Traffic)
}

func (c *counters) restoreCounters(stored uint64, tr Traffic) {
	c.stored = stored
	c.tr = tr
}

// State captures the pool (VMs in sorted-name order for stable bytes).
func (p *Pool) State() *PoolState {
	st := &PoolState{
		Capacity:     p.capacity,
		DefaultTier:  uint8(p.defaultTier),
		Total:        p.total,
		Peak:         p.peak,
		SwapOutBytes: p.SwapOutBytes,
		SwapInBytes:  p.SwapInBytes,
	}
	for _, e := range p.order {
		st.VMs = append(st.VMs, VMState{Name: e.name, RSS: e.rss, Tier: uint8(e.tier), Swapped: e.swapped})
	}
	for t := Tier(0); t < NumTiers; t++ {
		st.Backends[t] = BackendState{Stored: p.backends[t].Stored(), Traffic: p.backends[t].Traffic()}
	}
	return st
}

// RestoreState overwrites the pool with a checkpointed state. The pool's
// capacity and backend set must match the checkpoint (both come from the
// spec the pool was rebuilt from).
func (p *Pool) RestoreState(st *PoolState) error {
	if p.capacity != st.Capacity {
		return fmt.Errorf("hostmem: restore: capacity %d, checkpoint %d", p.capacity, st.Capacity)
	}
	p.defaultTier = Tier(st.DefaultTier)
	p.total = st.Total
	p.peak = st.Peak
	p.SwapOutBytes = st.SwapOutBytes
	p.SwapInBytes = st.SwapInBytes
	p.vms = make(map[string]*entry, len(st.VMs))
	p.order = make([]*entry, 0, len(st.VMs))
	for _, v := range st.VMs {
		if Tier(v.Tier) >= NumTiers {
			return fmt.Errorf("hostmem: restore: vm %q on unknown tier %d", v.Name, v.Tier)
		}
		if _, dup := p.vms[v.Name]; dup {
			return fmt.Errorf("hostmem: restore: vm %q listed twice", v.Name)
		}
		p.insert(&entry{name: v.Name, rss: v.RSS, tier: Tier(v.Tier), swapped: v.Swapped})
	}
	for t := Tier(0); t < NumTiers; t++ {
		rb, ok := p.backends[t].(restorableBackend)
		if !ok {
			return fmt.Errorf("hostmem: restore: tier %s backend %T cannot be restored",
				t, p.backends[t])
		}
		rb.restoreCounters(st.Backends[t].Stored, st.Backends[t].Traffic)
	}
	if p.tp != nil {
		p.tp.total.Set(int64(p.total))
	}
	return p.Validate()
}
