package broker

import (
	"fmt"

	"hyperalloc/internal/metrics"
	"hyperalloc/internal/sim"
)

// ManagedState is one attached VM's broker-side state, in attach order.
type ManagedState struct {
	Name     string
	Priority int
	Demand   []metrics.Point `json:",omitempty"`
	Free     []metrics.Point `json:",omitempty"`

	EWMA       float64  `json:",omitempty"`
	HasEWMA    bool     `json:",omitempty"`
	LastResize sim.Time `json:",omitempty"`
	HasResize  bool     `json:",omitempty"`
}

// BrokerState is the serializable state of a Broker: the decision log,
// sampled series, EWMA state, and counter values. The counters are
// registry instruments and also travel with the tracer state when a
// tracer is attached; carrying them here too keeps untraced runs
// byte-identical across checkpoint/restore (the tracer restore, which
// runs later, re-applies the same values).
type BrokerState struct {
	VMs      []ManagedState `json:",omitempty"`
	Events   []Event        `json:",omitempty"`
	LowTicks int            `json:",omitempty"`

	Ticks       uint64 `json:",omitempty"`
	Grows       uint64 `json:",omitempty"`
	Shrinks     uint64 `json:",omitempty"`
	Emergencies uint64 `json:",omitempty"`
	Errors      uint64 `json:",omitempty"`
	Evacuations uint64 `json:",omitempty"`
	TierMoves   uint64 `json:",omitempty"`
}

// State captures the broker.
func (b *Broker) State() *BrokerState {
	st := &BrokerState{
		Events:   append([]Event(nil), b.Events...),
		LowTicks: b.lowTicks,

		Ticks:       b.ticks.Value(),
		Grows:       b.grows.Value(),
		Shrinks:     b.shrinks.Value(),
		Emergencies: b.emergencies.Value(),
		Errors:      b.errors.Value(),
		Evacuations: b.evacuations.Value(),
		TierMoves:   b.tierMoves.Value(),
	}
	for _, m := range b.vms {
		st.VMs = append(st.VMs, ManagedState{
			Name:       m.vm.Name,
			Priority:   m.priority,
			Demand:     append([]metrics.Point(nil), m.demand.Points...),
			Free:       append([]metrics.Point(nil), m.free.Points...),
			EWMA:       m.ewma,
			HasEWMA:    m.hasEwma,
			LastResize: m.lastResize,
			HasResize:  m.hasResize,
		})
	}
	return st
}

// RestoreState overwrites the broker's per-VM state with a checkpointed
// one. The same VMs must already be attached, in the same order (the
// rebuild attaches them from the spec).
func (b *Broker) RestoreState(st *BrokerState) error {
	if len(st.VMs) != len(b.vms) {
		return fmt.Errorf("broker: restore: %d attached VMs, checkpoint %d", len(b.vms), len(st.VMs))
	}
	for i, ms := range st.VMs {
		m := b.vms[i]
		if m.vm.Name != ms.Name {
			return fmt.Errorf("broker: restore: VM %d is %q, checkpoint %q (attach order differs)",
				i, m.vm.Name, ms.Name)
		}
		m.priority = ms.Priority
		m.demand.Points = append(m.demand.Points[:0], ms.Demand...)
		m.free.Points = append(m.free.Points[:0], ms.Free...)
		m.ewma = ms.EWMA
		m.hasEwma = ms.HasEWMA
		m.lastResize = ms.LastResize
		m.hasResize = ms.HasResize
	}
	b.Events = append(b.Events[:0], st.Events...)
	b.lowTicks = st.LowTicks
	b.ticks.RestoreValue(st.Ticks)
	b.grows.RestoreValue(st.Grows)
	b.shrinks.RestoreValue(st.Shrinks)
	b.emergencies.RestoreValue(st.Emergencies)
	b.errors.RestoreValue(st.Errors)
	b.evacuations.RestoreValue(st.Evacuations)
	b.tierMoves.RestoreValue(st.TierMoves)
	return nil
}

// RestoreTick re-arms the control loop from a checkpointed pending event
// (recorded under "broker/tick") with its original (at, seq).
func (b *Broker) RestoreTick(at sim.Time, seq uint64) {
	b.sched.Cancel(b.event)
	b.event = b.sched.RestoreAt(at, seq, "broker/tick", b.tick)
}
