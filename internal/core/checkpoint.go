package core

import (
	"fmt"

	"hyperalloc/internal/sim"
)

// MechanismState is the serializable state of a HyperAlloc monitor: the
// per-zone reclamation-state arrays R, the hard limit, and the counters.
// The shared allocator words are part of the guest zone state (the
// monitor's Share()d handles alias the same arrays, so restoring the
// guest restores the monitor's view too).
type MechanismState struct {
	Limit      uint64
	AutoPeriod sim.Duration
	// R holds each zone's reclamation-state array (a uint8 slice, so it
	// marshals as base64).
	R [][]ReclaimState `json:",omitempty"`

	Counters

	QueueKicks     uint64 `json:",omitempty"`
	QueueDelivered uint64 `json:",omitempty"`
}

// Snapshot captures the monitor. Checkpoints are taken between events,
// where the install queue is drained (installs kick synchronously), so a
// non-empty queue is an error.
func (m *Mechanism) Snapshot() (*MechanismState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.queue.Len(); n != 0 {
		return nil, fmt.Errorf("core: checkpoint with %d pending install descriptors", n)
	}
	st := &MechanismState{
		Limit:          m.limit,
		AutoPeriod:     m.AutoPeriod,
		Counters:       m.Counters,
		QueueKicks:     m.queue.Kicks,
		QueueDelivered: m.queue.Delivered,
	}
	for _, zs := range m.zones {
		st.R = append(st.R, append([]ReclaimState(nil), zs.r...))
	}
	return st, nil
}

// RestoreState overwrites the monitor with a checkpointed state. The
// guest's allocator state must be restored first (shared handles alias
// it).
func (m *Mechanism) RestoreState(st *MechanismState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(st.R) != len(m.zones) {
		return fmt.Errorf("core: restore: %d zones, checkpoint %d", len(m.zones), len(st.R))
	}
	for i, zs := range m.zones {
		if len(st.R[i]) != len(zs.r) {
			return fmt.Errorf("core: restore: zone %d has %d areas, checkpoint %d",
				i, len(zs.r), len(st.R[i]))
		}
		for j, v := range st.R[i] {
			if v > HardReclaimed {
				return fmt.Errorf("core: restore: zone %d area %d: unknown state %d", i, j, v)
			}
			zs.r[j] = v
		}
	}
	m.limit = st.Limit
	m.AutoPeriod = st.AutoPeriod
	m.Counters = st.Counters
	m.queue.Kicks = st.QueueKicks
	m.queue.Delivered = st.QueueDelivered
	return nil
}
