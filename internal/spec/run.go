package spec

import (
	"fmt"

	"hyperalloc"
	"hyperalloc/internal/guest"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
)

// cacheFiles is the size of the rotating page-cache working set each
// driver churns through.
const cacheFiles = 8

// workload is one VM's deterministic demand driver. Every tick it
// samples a new anonymous-memory target from the scenario RNG, grows or
// shrinks its region set to meet it, and churns page cache. All its
// mutable state — tick count, current target, file counter, and the
// region set — serializes into a WorkloadState, so a restored driver
// continues the exact RNG-consumption sequence of the uninterrupted
// run.
type workload struct {
	sim *Sim
	vm  *hyperalloc.VM
	sp  *VMSpec

	regions   []*guest.Region
	target    uint64
	ticks     uint64
	files     uint64
	allocErrs uint64
	event     sim.Handle
}

// eventName is the driver's scheduler event name ("spec/<vm>/tick"),
// the key checkpoint restore dispatches on.
func (w *workload) eventName() string { return "spec/" + w.vm.Name + "/tick" }

// arm schedules the first tick.
func (w *workload) arm() {
	w.event = w.sim.Sys.Sched.After(w.sp.Workload.TickPeriod, w.eventName(), w.tick)
}

// restoreTick re-arms a checkpointed pending tick with its original
// (at, seq).
func (w *workload) restoreTick(at sim.Time, seq uint64) {
	w.sim.Sys.Sched.Cancel(w.event)
	w.event = w.sim.Sys.Sched.RestoreAt(at, seq, w.eventName(), w.tick)
}

// tick runs one driver step and reschedules itself.
func (w *workload) tick() {
	w.ticks++
	ws := w.sp.Workload
	rng := w.sim.Sys.RNG
	g := guestOf(w.vm)

	// Sample a fresh demand target, rounded down to huge-frame
	// multiples so grows prefer the 2 MiB path.
	span := ws.DemandMax - ws.DemandMin
	w.target = ws.DemandMin
	if span > 0 {
		w.target += rng.Uint64n(span + 1)
	}
	w.target &^= mem.HugeSize - 1

	cpu := int(w.ticks) % g.CPUs()
	if used := w.used(); used < w.target {
		if r, err := g.AllocAnon(cpu, w.target-used); err == nil {
			w.regions = append(w.regions, r)
		} else {
			// Under a shrunk limit the guest can be out of memory;
			// the driver backs off until the broker grows it again.
			w.allocErrs++
		}
	} else if used > w.target {
		w.release(used - w.target)
	}

	if ws.CacheBytes > 0 {
		name := fmt.Sprintf("spec/%s/f%d", w.vm.Name, w.files%cacheFiles)
		w.files++
		// Alternate writes and re-reads so the cache holds warm and
		// cold files (eviction order matters under shrink).
		if w.files%2 == 1 {
			_ = g.Cache().Write(cpu, name, ws.CacheBytes)
		} else {
			_ = g.Cache().Read(cpu, name, ws.CacheBytes)
		}
	}

	w.event = w.sim.Sys.Sched.After(ws.TickPeriod, w.eventName(), w.tick)
}

// used sums the live region bytes.
func (w *workload) used() uint64 {
	var total uint64
	for _, r := range w.regions {
		total += r.Bytes()
	}
	return total
}

// release frees bytes from the newest regions first (LIFO, like a
// shrinking phase dropping its most recent allocations).
func (w *workload) release(bytes uint64) {
	for bytes > 0 && len(w.regions) > 0 {
		last := w.regions[len(w.regions)-1]
		if last.Bytes() <= bytes {
			bytes -= last.Bytes()
			last.Free()
			w.regions = w.regions[:len(w.regions)-1]
			continue
		}
		bytes -= last.FreePartial(bytes)
	}
}

// WorkloadState is one driver's serializable state.
type WorkloadState struct {
	Ticks     uint64              `json:",omitempty"`
	Target    uint64              `json:",omitempty"`
	Files     uint64              `json:",omitempty"`
	AllocErrs uint64              `json:",omitempty"`
	Regions   []guest.RegionState `json:",omitempty"`
}

// state captures the driver.
func (w *workload) state() *WorkloadState {
	st := &WorkloadState{
		Ticks:     w.ticks,
		Target:    w.target,
		Files:     w.files,
		AllocErrs: w.allocErrs,
	}
	for _, r := range w.regions {
		st.Regions = append(st.Regions, r.State())
	}
	return st
}

// restoreState rebuilds the driver's regions on a guest whose allocator
// state has already been restored (RestoreRegion re-links rmap entries
// without allocating).
func (w *workload) restoreState(st *WorkloadState) error {
	w.ticks = st.Ticks
	w.target = st.Target
	w.files = st.Files
	w.allocErrs = st.AllocErrs
	w.regions = w.regions[:0]
	g := guestOf(w.vm)
	for i, rs := range st.Regions {
		r, err := g.RestoreRegion(rs)
		if err != nil {
			return fmt.Errorf("spec: restoring %s region %d: %w", w.vm.Name, i, err)
		}
		w.regions = append(w.regions, r)
	}
	return nil
}

// VMResult is one VM's end-of-run summary.
type VMResult struct {
	Name       string
	Mechanism  string
	RSS        uint64
	Limit      uint64
	FreeBytes  uint64
	CacheBytes uint64
	Swapped    uint64 `json:",omitempty"`
	Ticks      uint64 `json:",omitempty"`
	Regions    int    `json:",omitempty"`
	UsedBytes  uint64 `json:",omitempty"`
	AllocErrs  uint64 `json:",omitempty"`
}

// BrokerResult is the broker's end-of-run summary.
type BrokerResult struct {
	Ticks     uint64
	Grows     uint64
	Shrinks   uint64
	Errors    uint64 `json:",omitempty"`
	TierMoves uint64 `json:",omitempty"`
	Decisions int
}

// Result is a scenario's end-of-run summary. It serializes via
// internal/report, and — together with the trace state — carries the
// byte-identity guarantee: an uninterrupted run and a
// checkpoint/restore run of the same scenario produce identical bytes.
type Result struct {
	Scenario  string
	Seed      uint64
	End       sim.Time
	PoolTotal uint64
	PoolPeak  uint64
	SwapOut   uint64        `json:",omitempty"`
	SwapIn    uint64        `json:",omitempty"`
	Broker    *BrokerResult `json:",omitempty"`
	VMs       []VMResult
}

// Result summarizes the simulation's current state.
func (s *Sim) Result() *Result {
	res := &Result{
		Scenario:  s.Scenario.Name,
		Seed:      s.Scenario.Seed,
		End:       s.Sys.Now(),
		PoolTotal: s.Sys.Pool.Total(),
		PoolPeak:  s.Sys.Pool.Peak(),
		SwapOut:   s.Sys.Pool.SwapOutBytes,
		SwapIn:    s.Sys.Pool.SwapInBytes,
	}
	if s.Broker != nil {
		res.Broker = &BrokerResult{
			Ticks:     s.Broker.Ticks(),
			Grows:     s.Broker.Grows(),
			Shrinks:   s.Broker.Shrinks(),
			Errors:    s.Broker.Errors(),
			TierMoves: s.Broker.TierMoves(),
			Decisions: len(s.Broker.Events),
		}
	}
	for i, vm := range s.VMs {
		vr := VMResult{
			Name:       vm.Name,
			Mechanism:  s.Scenario.VMs[i].Mechanism,
			RSS:        vm.RSS(),
			Limit:      vm.Limit(),
			FreeBytes:  vm.FreeBytes(),
			CacheBytes: guestOf(vm).CacheBytes(),
			Swapped:    s.Sys.Pool.Swapped(vm.Name),
		}
		if w := s.workloadFor(vm.Name); w != nil {
			vr.Ticks = w.ticks
			vr.Regions = len(w.regions)
			vr.UsedBytes = w.used()
			vr.AllocErrs = w.allocErrs
		}
		res.VMs = append(res.VMs, vr)
	}
	return res
}
