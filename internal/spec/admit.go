package spec

import (
	"fmt"

	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/mem"
)

// Stable admission-failure IDs. These are API: tests pin them, callers
// branch on failures[0].ID, and operators grep logs for them — never
// renumber or reuse one.
const (
	// SpecVersionID: the spec's Version is newer than this build supports.
	SpecVersionID = "spec.version.unsupported"
	// SpecNameEmptyID: the scenario has no name.
	SpecNameEmptyID = "spec.name.empty"
	// SpecDurationID: the run length is not positive.
	SpecDurationID = "spec.duration.nonpositive"
	// SpecNoVMsID: the scenario declares no VMs.
	SpecNoVMsID = "spec.vms.empty"
	// SpecVMNameID: a VM has no name.
	SpecVMNameID = "spec.vm.name.empty"
	// SpecDupNameID: two VMs share a name.
	SpecDupNameID = "spec.vm.name.duplicate"
	// SpecMechUnknownID: the mechanism is not an evaluation candidate.
	SpecMechUnknownID = "spec.vm.mechanism.unknown"
	// SpecMemBoundsID: MemoryMax < MemoryMin.
	SpecMemBoundsID = "spec.vm.memory.bounds"
	// SpecMemFloorID: the memory bounds dip below the 2 GiB DMA32 carve-out.
	SpecMemFloorID = "spec.vm.memory.floor"
	// SpecVFIOPostcopyID: VFIO pinning conflicts with postcopy migration.
	SpecVFIOPostcopyID = "spec.vm.vfio.postcopy"
	// SpecVFIOBalloonID: balloon mechanisms are not DMA-safe under VFIO.
	SpecVFIOBalloonID = "spec.vm.vfio.balloon"
	// SpecBaselineResizeID: a baseline VM cannot be resized, so elastic
	// bounds are meaningless.
	SpecBaselineResizeID = "spec.vm.baseline.resize"
	// SpecHugepageID: hugepage demand exceeds the VM's movable area or
	// the host's capacity.
	SpecHugepageID = "spec.vm.hugepages.exceed"
	// SpecTierUnknownID: the eviction tier name is unknown.
	SpecTierUnknownID = "spec.vm.tier.unknown"
	// SpecAutoPeriodID: the auto-reclamation period is negative.
	SpecAutoPeriodID = "spec.vm.autoperiod.negative"
	// SpecWorkloadID: the workload demand bounds are inverted or exceed
	// the VM's memory.
	SpecWorkloadID = "spec.vm.workload.bounds"
	// SpecPolicyUnknownID: the broker policy name is unknown.
	SpecPolicyUnknownID = "spec.broker.policy.unknown"
	// SpecTierPolicyID: the broker tier-policy name is unknown.
	SpecTierPolicyID = "spec.broker.tierpolicy.unknown"
	// SpecHostCapacityID: the sum of VM memory floors exceeds the host —
	// infeasible even with every VM fully shrunk.
	SpecHostCapacityID = "spec.host.capacity.exceeded"
)

// dma32Floor mirrors the hyperalloc DMA32/regular carve-out: every VM
// dedicates its first 2 GiB to the unmovable zone, so both memory
// bounds must clear it.
const dma32Floor = 2 * mem.GiB

// Failure is one typed admission failure. ID is stable across releases;
// Message is human-facing and free to change.
type Failure struct {
	// ID is the stable failure identifier (one of the Spec...ID consts).
	ID string
	// VM names the offending VM ("" for scenario-level failures).
	VM string `json:",omitempty"`
	// Message explains the failure.
	Message string
}

func (f Failure) Error() string {
	if f.VM != "" {
		return fmt.Sprintf("%s (vm %s): %s", f.ID, f.VM, f.Message)
	}
	return fmt.Sprintf("%s: %s", f.ID, f.Message)
}

// FailureError wraps a non-empty admission result as an error.
type FailureError struct{ Failures []Failure }

func (e *FailureError) Error() string {
	if len(e.Failures) == 1 {
		return "spec: admission failed: " + e.Failures[0].Error()
	}
	return fmt.Sprintf("spec: admission failed: %s (and %d more)",
		e.Failures[0].Error(), len(e.Failures)-1)
}

// AsError returns nil for an empty failure list, a *FailureError
// otherwise.
func AsError(fs []Failure) error {
	if len(fs) == 0 {
		return nil
	}
	return &FailureError{Failures: fs}
}

// validator is one admission rule: every rule owns exactly one failure
// ID, so a test can pin each ID to the scenario shape that trips it.
type validator struct {
	id    string
	check func(sc *Scenario) []Failure
}

// knownMechanisms are the evaluation candidates a spec may name.
var knownMechanisms = map[string]bool{
	"baseline":            true,
	"virtio-balloon":      true,
	"virtio-balloon-huge": true,
	"virtio-mem":          true,
	"HyperAlloc":          true,
}

func isBalloon(m string) bool {
	return m == "virtio-balloon" || m == "virtio-balloon-huge"
}

// perVM builds a validator that applies one check to every VM.
func perVM(id string, check func(v *VMSpec) string) validator {
	return validator{id: id, check: func(sc *Scenario) []Failure {
		var fs []Failure
		for i := range sc.VMs {
			if msg := check(&sc.VMs[i]); msg != "" {
				fs = append(fs, Failure{ID: id, VM: sc.VMs[i].Name, Message: msg})
			}
		}
		return fs
	}}
}

// validators is the admission table. Order is the report order:
// scenario-level shape first, then per-VM constraints, then host-level
// feasibility — so failures[0] is the most fundamental problem.
var validators = []validator{
	{id: SpecVersionID, check: func(sc *Scenario) []Failure {
		if sc.Version > FormatVersion {
			return []Failure{{ID: SpecVersionID,
				Message: fmt.Sprintf("version %d newer than supported %d", sc.Version, FormatVersion)}}
		}
		return nil
	}},
	{id: SpecNameEmptyID, check: func(sc *Scenario) []Failure {
		if sc.Name == "" {
			return []Failure{{ID: SpecNameEmptyID, Message: "scenario has no name"}}
		}
		return nil
	}},
	{id: SpecDurationID, check: func(sc *Scenario) []Failure {
		if sc.Duration <= 0 {
			return []Failure{{ID: SpecDurationID,
				Message: fmt.Sprintf("duration %d is not positive", sc.Duration)}}
		}
		return nil
	}},
	{id: SpecNoVMsID, check: func(sc *Scenario) []Failure {
		if len(sc.VMs) == 0 {
			return []Failure{{ID: SpecNoVMsID, Message: "scenario declares no VMs"}}
		}
		return nil
	}},
	perVM(SpecVMNameID, func(v *VMSpec) string {
		if v.Name == "" {
			return "VM has no name"
		}
		return ""
	}),
	{id: SpecDupNameID, check: func(sc *Scenario) []Failure {
		seen := map[string]bool{}
		var fs []Failure
		for _, v := range sc.VMs {
			if v.Name != "" && seen[v.Name] {
				fs = append(fs, Failure{ID: SpecDupNameID, VM: v.Name,
					Message: "duplicate VM name"})
			}
			seen[v.Name] = true
		}
		return fs
	}},
	perVM(SpecMechUnknownID, func(v *VMSpec) string {
		if !knownMechanisms[v.Mechanism] {
			return fmt.Sprintf("unknown mechanism %q", v.Mechanism)
		}
		return ""
	}),
	perVM(SpecMemBoundsID, func(v *VMSpec) string {
		if v.MemoryMax < v.MemoryMin {
			return fmt.Sprintf("max %s < min %s",
				mem.HumanBytes(v.MemoryMax), mem.HumanBytes(v.MemoryMin))
		}
		return ""
	}),
	perVM(SpecMemFloorID, func(v *VMSpec) string {
		if v.MemoryMin <= dma32Floor || v.MemoryMax <= dma32Floor {
			return fmt.Sprintf("memory bounds must exceed the %s DMA32 carve-out",
				mem.HumanBytes(dma32Floor))
		}
		return ""
	}),
	perVM(SpecVFIOPostcopyID, func(v *VMSpec) string {
		if v.VFIO && v.Postcopy {
			return "VFIO pins pages; postcopy migration cannot fault them in remotely"
		}
		return ""
	}),
	perVM(SpecVFIOBalloonID, func(v *VMSpec) string {
		if v.VFIO && isBalloon(v.Mechanism) {
			return fmt.Sprintf("%s is not DMA-safe; refusing VFIO", v.Mechanism)
		}
		return ""
	}),
	perVM(SpecBaselineResizeID, func(v *VMSpec) string {
		if v.Mechanism == "baseline" && v.MemoryMin != v.MemoryMax {
			return "baseline VMs cannot be resized; min must equal max"
		}
		return ""
	}),
	perVM(SpecHugepageID, func(v *VMSpec) string {
		if v.HugepageBytes == 0 {
			return ""
		}
		if v.MemoryMax <= dma32Floor {
			return "" // covered by the floor check
		}
		if movable := v.MemoryMax - dma32Floor; v.HugepageBytes > movable {
			return fmt.Sprintf("hugepage demand %s exceeds the VM's %s movable area",
				mem.HumanBytes(v.HugepageBytes), mem.HumanBytes(movable))
		}
		return ""
	}),
	{id: SpecHugepageID, check: func(sc *Scenario) []Failure {
		if sc.HostMemory == 0 {
			return nil
		}
		var total uint64
		for _, v := range sc.VMs {
			total += v.HugepageBytes
		}
		if total > sc.HostMemory {
			return []Failure{{ID: SpecHugepageID,
				Message: fmt.Sprintf("total hugepage demand %s exceeds host memory %s",
					mem.HumanBytes(total), mem.HumanBytes(sc.HostMemory))}}
		}
		return nil
	}},
	perVM(SpecTierUnknownID, func(v *VMSpec) string {
		if v.Tier == "" {
			return ""
		}
		if _, err := hostmem.ParseTier(v.Tier); err != nil {
			return fmt.Sprintf("unknown tier %q", v.Tier)
		}
		return ""
	}),
	perVM(SpecAutoPeriodID, func(v *VMSpec) string {
		if v.AutoPeriod < 0 {
			return fmt.Sprintf("auto period %d is negative", v.AutoPeriod)
		}
		return ""
	}),
	perVM(SpecWorkloadID, func(v *VMSpec) string {
		w := v.Workload
		if w.TickPeriod < 0 {
			return fmt.Sprintf("tick period %d is negative", w.TickPeriod)
		}
		if w.TickPeriod == 0 {
			return ""
		}
		if w.DemandMin > w.DemandMax {
			return fmt.Sprintf("demand min %s > max %s",
				mem.HumanBytes(w.DemandMin), mem.HumanBytes(w.DemandMax))
		}
		if v.MemoryMax > dma32Floor && w.DemandMax > v.MemoryMax-dma32Floor {
			return fmt.Sprintf("demand max %s exceeds the VM's %s movable area",
				mem.HumanBytes(w.DemandMax), mem.HumanBytes(v.MemoryMax-dma32Floor))
		}
		return ""
	}),
	{id: SpecPolicyUnknownID, check: func(sc *Scenario) []Failure {
		if sc.Broker == nil {
			return nil
		}
		switch sc.Broker.Policy {
		case "static-split", "watermark", "proportional-share":
			return nil
		}
		return []Failure{{ID: SpecPolicyUnknownID,
			Message: fmt.Sprintf("unknown broker policy %q", sc.Broker.Policy)}}
	}},
	{id: SpecTierPolicyID, check: func(sc *Scenario) []Failure {
		if sc.Broker == nil || sc.Broker.TierPolicy == "" {
			return nil
		}
		if sc.Broker.TierPolicy == "cold-tier" {
			return nil
		}
		const pfx = "static-"
		if len(sc.Broker.TierPolicy) > len(pfx) && sc.Broker.TierPolicy[:len(pfx)] == pfx {
			if _, err := hostmem.ParseTier(sc.Broker.TierPolicy[len(pfx):]); err == nil {
				return nil
			}
		}
		return []Failure{{ID: SpecTierPolicyID,
			Message: fmt.Sprintf("unknown tier policy %q", sc.Broker.TierPolicy)}}
	}},
	{id: SpecHostCapacityID, check: func(sc *Scenario) []Failure {
		if sc.HostMemory == 0 {
			return nil
		}
		var floor uint64
		for _, v := range sc.VMs {
			floor += v.MemoryMin
		}
		if floor > sc.HostMemory {
			return []Failure{{ID: SpecHostCapacityID,
				Message: fmt.Sprintf("sum of memory floors %s exceeds host memory %s",
					mem.HumanBytes(floor), mem.HumanBytes(sc.HostMemory))}}
		}
		return nil
	}},
}

// Admit runs every admission validator and returns the typed failures,
// empty on a feasible spec. Failure order follows the validator table,
// so failures[0] is the most fundamental problem.
func Admit(sc *Scenario) []Failure {
	var fs []Failure
	for _, v := range validators {
		fs = append(fs, v.check(sc)...)
	}
	return fs
}

// FailureIDs lists every stable admission-failure ID (the catalogue for
// cmd/speccheck and the docs).
func FailureIDs() []string {
	return []string{
		SpecVersionID, SpecNameEmptyID, SpecDurationID, SpecNoVMsID,
		SpecVMNameID, SpecDupNameID, SpecMechUnknownID, SpecMemBoundsID,
		SpecMemFloorID, SpecVFIOPostcopyID, SpecVFIOBalloonID,
		SpecBaselineResizeID, SpecHugepageID, SpecTierUnknownID,
		SpecAutoPeriodID, SpecWorkloadID, SpecPolicyUnknownID,
		SpecTierPolicyID, SpecHostCapacityID,
	}
}
