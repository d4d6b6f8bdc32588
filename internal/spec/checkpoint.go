package spec

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"hyperalloc"
	"hyperalloc/internal/audit"
	"hyperalloc/internal/balloon"
	"hyperalloc/internal/broker"
	"hyperalloc/internal/core"
	"hyperalloc/internal/ept"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/virtiomem"
	"hyperalloc/internal/vmm"
)

// CheckpointVersion is the checkpoint format version: 2 stores only state
// restore cannot derive (DESIGN.md §16). LoadCheckpoint rejects others.
const CheckpointVersion = 2

// VMState is one VM's checkpointed state: the guest (allocators, page
// cache, counters), the EPT, the time ledger, and the
// candidate-specific mechanism. Exactly one mechanism field is non-nil,
// matching the spec's Mechanism (all nil for baseline).
type VMState struct {
	Name       string
	Guest      *guest.GuestState
	EPT        *ept.TableState
	Ledger     *ledger.LedgerState
	HyperAlloc *core.MechanismState      `json:",omitempty"`
	Balloon    *balloon.MechanismState   `json:",omitempty"`
	VirtioMem  *virtiomem.MechanismState `json:",omitempty"`
	Workload   *WorkloadState            `json:",omitempty"`
}

// Checkpoint is a complete simulation snapshot, taken between events
// (see Sim.StepUntil). It embeds the scenario so a restore needs only
// the checkpoint file: the scenario rebuilds the immutable topology,
// the state sections overwrite everything mutable, and the event list
// re-arms the schedule with original (at, seq) pairs — so the restored
// run's event interleaving, RNG stream, and trace output are
// byte-for-byte those of the uninterrupted run.
//
// Unlike migrate's wire serialization — which moves one VM's memory
// contents between hosts and lets the destination re-derive placement —
// a checkpoint freezes a whole host mid-simulation, including the
// scheduler's pending events and sequence counter, the RNG position,
// and every instrument's samples. See DESIGN.md §16.
type Checkpoint struct {
	Version  int
	Scenario *Scenario
	At       sim.Time
	Seq      uint64
	RNG      [4]uint64
	Events   []sim.PendingEvent
	Pool     *hostmem.PoolState
	VMs      []*VMState
	Broker   *broker.BrokerState `json:",omitempty"`
	Trace    *trace.TracerState  `json:",omitempty"`
}

// Capture snapshots the simulation. The clock must be between events
// (StepUntil leaves it there): virtio rings are drained, no spans are
// open, and every mechanism is quiescent. VFIO VMs are rejected — the
// IOMMU pin table has no serialization — as are unstarted sims.
func (s *Sim) Capture() (*Checkpoint, error) {
	for i := range s.Scenario.VMs {
		if s.Scenario.VMs[i].VFIO {
			return nil, fmt.Errorf("spec: checkpointing VFIO VM %q is unsupported (no IOMMU serialization)",
				s.Scenario.VMs[i].Name)
		}
	}
	if !s.started {
		return nil, fmt.Errorf("spec: checkpointing an unstarted simulation (nothing to resume)")
	}
	cp := &Checkpoint{
		Version:  CheckpointVersion,
		Scenario: s.Scenario,
		At:       s.Sys.Now(),
		Seq:      s.Sys.Sched.Seq(),
		RNG:      s.Sys.RNG.State(),
		Events:   s.Sys.Sched.CheckpointEvents(),
		Pool:     s.Sys.Pool.State(),
	}
	for _, vm := range s.VMs {
		gs, err := guestOf(vm).State()
		if err != nil {
			return nil, fmt.Errorf("spec: capturing guest %q: %w", vm.Name, err)
		}
		vs := &VMState{
			Name:   vm.Name,
			Guest:  gs,
			EPT:    vm.EPT.State(),
			Ledger: vm.Meter.Ledger().State(),
		}
		switch {
		case vm.HyperAlloc != nil:
			vs.HyperAlloc, err = vm.HyperAlloc.Snapshot()
		case vm.Balloon != nil:
			vs.Balloon, err = vm.Balloon.State()
		case vm.VirtioMem != nil:
			vs.VirtioMem = vm.VirtioMem.State()
		}
		if err != nil {
			return nil, fmt.Errorf("spec: capturing mechanism of %q: %w", vm.Name, err)
		}
		if w := s.workloadFor(vm.Name); w != nil {
			vs.Workload = w.state()
		}
		cp.VMs = append(cp.VMs, vs)
	}
	if s.Broker != nil {
		cp.Broker = s.Broker.State()
	}
	if s.Tracer != nil {
		ts, err := s.Tracer.State()
		if err != nil {
			return nil, fmt.Errorf("spec: capturing tracer: %w", err)
		}
		cp.Trace = ts
	}
	return cp, nil
}

// Bytes serializes the checkpoint as compact stable-key JSON.
func (cp *Checkpoint) Bytes() ([]byte, error) { return json.Marshal(cp) }

// Save writes the checkpoint to path.
func (cp *Checkpoint) Save(path string) error {
	data, err := cp.Bytes()
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	return err
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%s: checkpoint version %d, this build reads only version %d",
			path, cp.Version, CheckpointVersion)
	}
	if cp.Scenario == nil {
		return nil, fmt.Errorf("%s: checkpoint has no embedded scenario", path)
	}
	return cp, nil
}

// Restore rebuilds a simulation from a checkpoint: construct from the
// embedded scenario (Build), overwrite every component's mutable state,
// re-arm the pending events with their original (at, seq) pairs, and
// invariant-check the result (audit.ValidateSpec) before the first
// event can fire. The returned Sim continues exactly where Capture
// left off.
func Restore(cp *Checkpoint, opts BuildOptions) (*Sim, error) {
	if cp.Trace != nil {
		opts.Trace = true
	}
	s, err := Build(cp.Scenario, opts)
	if err != nil {
		return nil, fmt.Errorf("spec: rebuilding from checkpoint: %w", err)
	}
	if len(cp.VMs) != len(s.VMs) {
		return nil, fmt.Errorf("spec: checkpoint has %d VMs, scenario builds %d", len(cp.VMs), len(s.VMs))
	}
	for i, vs := range cp.VMs {
		vm := s.VMs[i]
		if vm.Name != vs.Name {
			return nil, fmt.Errorf("spec: checkpoint VM %d is %q, scenario builds %q", i, vs.Name, vm.Name)
		}
		// Guest first: the HyperAlloc monitor's shared handles alias
		// the guest's allocator words, and region restore needs the
		// allocator bitmaps in their checkpointed state.
		if err := guestOf(vm).RestoreState(vs.Guest); err != nil {
			return nil, fmt.Errorf("spec: restoring guest %q: %w", vm.Name, err)
		}
		if w := s.workloadFor(vm.Name); w != nil && vs.Workload != nil {
			if err := w.restoreState(vs.Workload); err != nil {
				return nil, err
			}
		}
		if err := vm.EPT.RestoreState(vs.EPT); err != nil {
			return nil, fmt.Errorf("spec: restoring EPT %q: %w", vm.Name, err)
		}
		if err := vm.Meter.Ledger().RestoreState(vs.Ledger); err != nil {
			return nil, fmt.Errorf("spec: restoring ledger %q: %w", vm.Name, err)
		}
		switch {
		case vm.HyperAlloc != nil && vs.HyperAlloc != nil:
			err = vm.HyperAlloc.RestoreState(vs.HyperAlloc)
		case vm.Balloon != nil && vs.Balloon != nil:
			err = vm.Balloon.RestoreState(vs.Balloon)
		case vm.VirtioMem != nil && vs.VirtioMem != nil:
			err = vm.VirtioMem.RestoreState(vs.VirtioMem)
		case vm.Candidate == hyperalloc.CandidateBaseline:
			// No mechanism state.
		default:
			err = fmt.Errorf("mechanism/state mismatch")
		}
		if err != nil {
			return nil, fmt.Errorf("spec: restoring mechanism of %q: %w", vm.Name, err)
		}
	}
	if err := s.Sys.Pool.RestoreState(cp.Pool); err != nil {
		return nil, fmt.Errorf("spec: restoring pool: %w", err)
	}
	if cp.Broker != nil {
		if s.Broker == nil {
			return nil, fmt.Errorf("spec: checkpoint has broker state but scenario declares no broker")
		}
		if err := s.Broker.RestoreState(cp.Broker); err != nil {
			return nil, err
		}
	}
	if cp.Trace != nil {
		if err := s.Tracer.RestoreState(cp.Trace); err != nil {
			return nil, fmt.Errorf("spec: restoring tracer: %w", err)
		}
	}
	// Re-arm the schedule. Build left the sim cold, so every pending
	// event comes from the checkpoint, re-registered verbatim — the
	// (At, Seq) pairs reproduce the uninterrupted run's tie-breaking.
	s.started = true
	s.Sys.RNG.RestoreState(cp.RNG)
	for _, ev := range cp.Events {
		if err := s.rearm(ev); err != nil {
			return nil, err
		}
	}
	s.Sys.Sched.RestoreSeq(cp.Seq)
	s.Sys.Sched.RestoreClock(cp.At)
	// Invariant-check the restored state before the first event fires:
	// topology against the spec, then the full system audit.
	if err := s.Audit(); err != nil {
		return nil, fmt.Errorf("spec: restored state failed audit: %w", err)
	}
	return s, nil
}

// rearm re-registers one checkpointed pending event by name:
// "broker/tick" is the control loop, "spec/<vm>/tick" a workload
// driver, "<vm>/auto" a mechanism's auto-reclamation.
func (s *Sim) rearm(ev sim.PendingEvent) error {
	switch {
	case ev.Name == "broker/tick":
		if s.Broker == nil {
			return fmt.Errorf("spec: checkpoint arms %q but scenario has no broker", ev.Name)
		}
		s.Broker.RestoreTick(ev.At, ev.Seq)
	case strings.HasPrefix(ev.Name, "spec/") && strings.HasSuffix(ev.Name, "/tick"):
		name := strings.TrimSuffix(strings.TrimPrefix(ev.Name, "spec/"), "/tick")
		w := s.workloadFor(name)
		if w == nil {
			return fmt.Errorf("spec: checkpoint arms %q but VM %q has no workload", ev.Name, name)
		}
		w.restoreTick(ev.At, ev.Seq)
	case strings.HasSuffix(ev.Name, "/auto"):
		name := strings.TrimSuffix(ev.Name, "/auto")
		vm := s.vmByName(name)
		if vm == nil {
			return fmt.Errorf("spec: checkpoint arms %q but VM %q does not exist", ev.Name, name)
		}
		vm.VM.RestoreAuto(s.Sys.Sched, ev.At, ev.Seq)
	default:
		return fmt.Errorf("spec: checkpoint arms unknown event %q", ev.Name)
	}
	return nil
}

// Audit runs the spec-aware system audit: topology against the
// scenario, then every conservation invariant
// (audit.ValidateSpec).
func (s *Sim) Audit() error {
	inner := make([]*vmm.VM, 0, len(s.VMs))
	for _, vm := range s.VMs {
		inner = append(inner, vm.VM)
	}
	return audit.ValidateSpec(s.Scenario, s.Sys.Pool, inner...)
}
