package balloon

import (
	"fmt"

	"hyperalloc/internal/guest"
)

// MechanismState is the serializable state of a balloon: the per-zone
// inflated LIFO stacks of driver-held blocks, the limit, and the counters.
type MechanismState struct {
	Limit    uint64
	Inflated [][]guest.ChunkState `json:",omitempty"`
	Counters

	QueueKicks     uint64 `json:",omitempty"`
	QueueDelivered uint64 `json:",omitempty"`
}

// State captures the balloon. Checkpoints are taken between events, where
// the virtio ring is drained (inflate batches kick within Shrink).
func (m *Mechanism) State() (*MechanismState, error) {
	if n := m.queue.Len(); n != 0 {
		return nil, fmt.Errorf("balloon: checkpoint with %d pending descriptors", n)
	}
	st := &MechanismState{
		Limit:          m.limit,
		Counters:       m.Counters,
		QueueKicks:     m.queue.Kicks,
		QueueDelivered: m.queue.Delivered,
	}
	st.Inflated = make([][]guest.ChunkState, len(m.inflated))
	for z, ds := range m.inflated {
		st.Inflated[z] = append([]guest.ChunkState(nil), ds...)
	}
	return st, nil
}

// RestoreState overwrites the balloon with a checkpointed state. The guest
// (allocators, cache, regions) is restored first, so each inflated block
// is checked by Guest.ResolveBlock and must not repeat.
func (m *Mechanism) RestoreState(st *MechanismState) error {
	if len(st.Inflated) != len(m.inflated) {
		return fmt.Errorf("balloon: restore: %d zones, checkpoint %d", len(m.inflated), len(st.Inflated))
	}
	seen := make(map[desc]bool)
	for z := range m.inflated {
		m.inflated[z] = m.inflated[z][:0]
		for _, d := range st.Inflated[z] {
			if _, err := m.vm.Guest.ResolveBlock(d); err != nil {
				return fmt.Errorf("balloon: %w", err)
			}
			if d.Zone != z || seen[d] {
				return fmt.Errorf("balloon: restore: block %d of zone %d on zone %d's stack or inflated twice",
					d.PFN, d.Zone, z)
			}
			seen[d] = true
			m.inflated[z] = append(m.inflated[z], d)
		}
	}
	m.limit = st.Limit
	m.Counters = st.Counters
	m.queue.Kicks = st.QueueKicks
	m.queue.Delivered = st.QueueDelivered
	return nil
}
