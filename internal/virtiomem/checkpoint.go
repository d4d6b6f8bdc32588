package virtiomem

import "fmt"

// MechanismState is the serializable state of a virtio-mem device: the
// per-area plugged bitmap, the limit, and the counters. The movable
// zone's buddy state is part of the guest checkpoint.
type MechanismState struct {
	Limit   uint64
	Plugged []bool `json:",omitempty"`
	Counters
}

// State captures the device.
func (m *Mechanism) State() *MechanismState {
	return &MechanismState{
		Limit:    m.limit,
		Plugged:  append([]bool(nil), m.plugged...),
		Counters: m.Counters,
	}
}

// RestoreState overwrites the device with a checkpointed state.
func (m *Mechanism) RestoreState(st *MechanismState) error {
	if len(st.Plugged) != len(m.plugged) {
		return fmt.Errorf("virtiomem: restore: %d areas, checkpoint %d", len(m.plugged), len(st.Plugged))
	}
	copy(m.plugged, st.Plugged)
	m.limit = st.Limit
	m.Counters = st.Counters
	return nil
}
