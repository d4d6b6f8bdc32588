// Package cluster composes the validated single-host pieces — per-host
// schedulers and pools, the memory broker, and the live-migration engine
// — into a deterministic fleet-scale simulation: N hosts under one
// cluster scheduler that places VMs by bin-packing, evacuates pressured
// hosts through the brokers' watermark escape hatch, and drains hosts
// for maintenance, all while the conservation auditor watches every
// pool.
//
// Determinism (DESIGN.md §13): hosts are share-nothing simulations that
// advance independently inside bounded-lag epochs. Each epoch, the
// coordinator fans host groups across runner workers, advances every
// group to the epoch boundary, then — single-threaded, in host-index
// order — merges cross-host messages (evacuation requests collected in
// per-host outboxes), completes cut-over migrations, starts new ones,
// and samples metrics. Hosts linked by an in-flight migration form one
// group advanced by a single worker with merged-clock stepping (the
// engine runs on the source scheduler but mutates the destination pool),
// so no two goroutines ever touch the same host state. Results are
// byte-identical at any worker count.
//
// The placement decision is scored by a pluggable Scorer (score.go): the
// naive baseline packs against stale RSS; the allocator-aware scorer
// reads the guests' shared LLFree area state — the paper's zero-cost,
// always-current free-page signal — and packs against true usage.
package cluster

import (
	"fmt"

	"hyperalloc"
	"hyperalloc/internal/audit"
	"hyperalloc/internal/broker"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/migrate"
	"hyperalloc/internal/obs"
	"hyperalloc/internal/runner"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/vmm"
)

// Config parameterizes a Cluster.
type Config struct {
	// Hosts is the fleet size (default 4).
	Hosts int
	// HostBytes is each host's physical memory (default 24 GiB).
	HostBytes uint64
	// Lag is the bounded-lag epoch length: hosts advance independently
	// for this long between cross-host barriers (default 1 s).
	Lag sim.Duration
	// Workers bounds the goroutines advancing host groups; ≤0 means
	// GOMAXPROCS. Any value produces byte-identical results.
	Workers int
	// Scorer is the placement signal (default AllocatorAware).
	Scorer Scorer
	// Policy is each host broker's resize policy (default Watermark).
	Policy broker.Policy
	// BrokerPeriod is the per-host control-loop interval (default 1 s).
	BrokerPeriod sim.Duration
	// MinLimit floors broker targets (default: the broker's own 1 GiB).
	MinLimit uint64
	// EvacuateBelow / EvacuateHold arm each broker's evacuation escape
	// hatch (defaults 1.5 GiB / 3 ticks). Evacuations become cluster
	// migrations at the next epoch barrier.
	EvacuateBelow uint64
	EvacuateHold  int
	// Strategy is the free-page strategy for cluster migrations (default
	// HyperAllocSkip).
	Strategy migrate.Strategy
	// Backend is the swap tier every host's evictions land on (default
	// the NVMe tier, the pre-tier behaviour).
	Backend hostmem.Tier
	// DowntimeTarget is the migration blackout budget (default 300 ms);
	// a completed migration exceeding it counts as an SLO violation.
	DowntimeTarget sim.Duration
	// MaxRounds bounds each migration's pre-copy (default 30).
	MaxRounds int
	// SLOSwapBytes: a VM carrying more swap debt than this at an epoch
	// boundary counts one SLO violation for that epoch (default 64 MiB).
	SLOSwapBytes uint64
	// Audit runs audit.Hosts across all pools and VMs every AuditEvery
	// of simulated time (default 1 s), plus per-round engine audits on
	// every migration. A violation aborts RunFor with the error.
	Audit      bool
	AuditEvery sim.Duration
	// Seed feeds per-host RNGs (hosts fork deterministically from it).
	Seed uint64
	// Trace records the cluster timeline: per-host tracks and gauges,
	// cluster-level counters, and placement/migration instants. The
	// tracer binds to the cluster's own clock, which advances only at
	// epoch barriers (nil = off).
	Trace *trace.Tracer
	// Obs attaches a fleet observability pipeline (nil = off): per-host
	// and fleet rollup series fed at every epoch barrier, plus
	// burn-rate / thrash / cascade / stall alert rules (observe.go).
	// Feeding is read-only against the simulation, so attaching a
	// pipeline cannot change results or traces.
	Obs *obs.Pipeline
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.HostBytes == 0 {
		c.HostBytes = 24 * mem.GiB
	}
	if c.Lag == 0 {
		c.Lag = sim.Second
	}
	if c.Scorer == nil {
		c.Scorer = AllocatorAware{}
	}
	if c.Policy == nil {
		c.Policy = broker.Watermark{}
	}
	if c.BrokerPeriod == 0 {
		c.BrokerPeriod = sim.Second
	}
	if c.EvacuateBelow == 0 {
		c.EvacuateBelow = mem.GiB + 512*mem.MiB
	}
	if c.EvacuateHold == 0 {
		c.EvacuateHold = 3
	}
	if c.Strategy == "" {
		c.Strategy = migrate.HyperAllocSkip
	}
	if c.DowntimeTarget == 0 {
		c.DowntimeTarget = 300 * sim.Millisecond
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 30
	}
	if c.SLOSwapBytes == 0 {
		c.SLOSwapBytes = 64 * mem.MiB
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = sim.Second
	}
	return c
}

// VMSpec describes one VM admission.
type VMSpec struct {
	// Name must be cluster-unique.
	Name string
	// Memory is the VM size (required, > 2 GiB).
	Memory uint64
	// CPUs is the vCPU count (default 12).
	CPUs int
	// DemandHint is the committed-memory estimate the packer admits
	// against (default Memory/2).
	DemandHint uint64
	// Priority feeds the broker's proportional-share weight.
	Priority int
	// Candidate selects the reclamation technique (default HyperAlloc).
	Candidate hyperalloc.Candidate
}

// Host is one fleet member: a full single-host simulation (own
// scheduler, clock, pool, RNG) plus its memory broker.
type Host struct {
	Index  int
	Name   string
	Sys    *hyperalloc.System
	Broker *broker.Broker

	vms      []*hyperalloc.VM // resident VMs, arrival order
	evac     []*vmm.VM        // outbox: VMs the broker detached this epoch
	draining bool

	track *trace.Track
	gRSS  *trace.Gauge
	gUsed *trace.Gauge
	gVMs  *trace.Gauge
}

// VMs returns the resident VMs in arrival order (in-flight outbound
// migrations still count as resident until cut-over completes).
func (h *Host) VMs() []*hyperalloc.VM { return append([]*hyperalloc.VM(nil), h.vms...) }

// Draining reports whether the host is being drained.
func (h *Host) Draining() bool { return h.draining }

// wrapper resolves a monitor-side VM back to its resident wrapper.
func (h *Host) wrapper(v *vmm.VM) *hyperalloc.VM {
	for _, w := range h.vms {
		if w.VM == v {
			return w
		}
	}
	return nil
}

func (h *Host) removeVM(vm *hyperalloc.VM) {
	for i, w := range h.vms {
		if w == vm {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			return
		}
	}
}

// flight is one in-flight migration.
type flight struct {
	eng      *migrate.Engine
	vm       *hyperalloc.VM
	src, dst int
	reason   string   // "evacuate" | "drain"
	started  sim.Time // barrier the flight was armed at (stall detection)
}

// Metrics is the cluster scoreboard, accumulated at epoch barriers.
type Metrics struct {
	Epochs uint64

	// HostGiBMin integrates active host capacity over time — the bill a
	// provider pays for powered-on machines. A host is active while it
	// has resident VMs or an inbound migration.
	HostGiBMin float64
	// RSSGiBMin integrates aggregate fleet RSS over time.
	RSSGiBMin       float64
	PeakActiveHosts int

	Admissions       uint64
	ForcedPlacements uint64 // placements that overcommitted every candidate
	Evacuations      uint64 // watermark-triggered migrations started
	DrainMoves       uint64 // drain-triggered migrations started
	Migrations       uint64 // migrations completed
	MigratedBytes    uint64
	SkippedBytes     uint64
	Blackout         sim.Duration

	// SwapViolations counts VM-epochs with swap debt above SLOSwapBytes;
	// DowntimeViolations counts migrations whose blackout overshot the
	// target. SLOViolations is their sum.
	SwapViolations     uint64
	DowntimeViolations uint64
	SLOViolations      uint64
}

// Cluster is the fleet coordinator. All methods must be called from the
// coordinator goroutine — i.e. before RunFor, from the onEpoch callback,
// or after RunFor returns — never from inside a host's event loop.
type Cluster struct {
	cfg    Config
	hosts  []*Host
	clock  *sim.Clock
	run    runner.Runner
	byName map[string]*hyperalloc.VM
	home   map[string]int
	prio   map[string]int

	flights []*flight
	obs     *observer

	m          Metrics
	lastSample sim.Time
	lastAudit  sim.Time

	track       *trace.Track
	gActive     *trace.Gauge
	gInFlight   *trace.Gauge
	cAdmissions *trace.Counter
	cMigrations *trace.Counter
	cEvacs      *trace.Counter
	cSLO        *trace.Counter
}

// New builds the fleet: Hosts systems with HostBytes pools, one broker
// each (started), and the coordinator clock the tracer binds to.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		clock:  sim.NewClock(),
		run:    runner.Runner{Workers: cfg.Workers},
		byName: make(map[string]*hyperalloc.VM),
		home:   make(map[string]int),
		prio:   make(map[string]int),
	}
	if cfg.Trace != nil {
		cfg.Trace.Bind(c.clock)
	}
	reg := cfg.Trace.Registry()
	if reg == nil {
		reg = trace.NewRegistry()
	}
	c.track = cfg.Trace.Track("cluster")
	c.gActive = reg.Gauge("cluster/active_hosts")
	c.gInFlight = reg.Gauge("cluster/in_flight")
	c.cAdmissions = reg.Counter("cluster/admissions")
	c.cMigrations = reg.Counter("cluster/migrations")
	c.cEvacs = reg.Counter("cluster/evacuations")
	c.cSLO = reg.Counter("cluster/slo_violations")

	for i := 0; i < cfg.Hosts; i++ {
		h := &Host{
			Index: i,
			Name:  fmt.Sprintf("host%d", i),
			Sys:   hyperalloc.NewSystemWithMemory(cfg.Seed*0x9e3779b97f4a7c15+uint64(i)*0x2545f4914f6cdd1d+41, cfg.HostBytes),
		}
		h.Sys.Pool.SetDefaultTier(cfg.Backend)
		h.track = cfg.Trace.Track("cluster/" + h.Name)
		pre := "cluster/" + h.Name + "/"
		h.gRSS = reg.Gauge(pre + "rss_bytes")
		h.gUsed = reg.Gauge(pre + "used_bytes")
		h.gVMs = reg.Gauge(pre + "vms")
		host := h
		h.Broker = broker.New(h.Sys.Sched, h.Sys.Pool, broker.Config{
			Policy:        cfg.Policy,
			Period:        cfg.BrokerPeriod,
			MinLimit:      cfg.MinLimit,
			EvacuateBelow: cfg.EvacuateBelow,
			EvacuateHold:  cfg.EvacuateHold,
			// The outbox append runs inside the host's own event loop
			// (possibly on a worker goroutine) and touches only this
			// host's state; the coordinator drains it at the barrier.
			EvacuateFn: func(v *vmm.VM) { host.evac = append(host.evac, v) },
			VictimFn:   cfg.Scorer.BrokerVictim(host),
		})
		h.Broker.Start()
		c.hosts = append(c.hosts, h)
	}
	if cfg.Obs != nil {
		c.obs = newObserver(cfg.Obs, c)
	}
	return c
}

// Now returns the cluster's virtual time (the last epoch barrier).
func (c *Cluster) Now() sim.Time { return c.clock.Now() }

// Hosts returns the fleet size.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Host returns the i-th host.
func (c *Cluster) Host(i int) *Host { return c.hosts[i] }

// Metrics returns the scoreboard accumulated so far.
func (c *Cluster) Metrics() Metrics { return c.m }

// InFlight returns the number of in-flight migrations.
func (c *Cluster) InFlight() int { return len(c.flights) }

// VM resolves a VM by name (nil if unknown).
func (c *Cluster) VM(name string) *hyperalloc.VM { return c.byName[name] }

// HostOf returns the index of the host a VM currently calls home (-1 if
// unknown). An in-flight VM reports its source until cut-over completes.
func (c *Cluster) HostOf(name string) int {
	if i, ok := c.home[name]; ok {
		return i
	}
	return -1
}

// ActiveHosts counts hosts that are powered on: resident VMs or an
// inbound migration.
func (c *Cluster) ActiveHosts() int {
	n := 0
	for _, h := range c.hosts {
		if c.active(h) {
			n++
		}
	}
	return n
}

func (c *Cluster) active(h *Host) bool {
	if len(h.vms) > 0 {
		return true
	}
	for _, f := range c.flights {
		if f.dst == h.Index {
			return true
		}
	}
	return false
}

// Admit places and boots a VM: best-fit bin-packing over active hosts
// scored by the configured Scorer, waking a parked host only when
// nothing fits, overcommitting the emptiest host as a last resort.
// Returns the VM and its host index.
func (c *Cluster) Admit(spec VMSpec) (*hyperalloc.VM, int, error) {
	if spec.Name == "" {
		return nil, -1, fmt.Errorf("cluster: VMSpec.Name is required")
	}
	if _, ok := c.byName[spec.Name]; ok {
		return nil, -1, fmt.Errorf("cluster: vm %q already admitted", spec.Name)
	}
	hint := spec.DemandHint
	if hint == 0 {
		hint = spec.Memory / 2
	}
	idx, forced := c.place(hint, -1)
	if idx < 0 {
		return nil, -1, fmt.Errorf("cluster: no host can admit %q", spec.Name)
	}
	h := c.hosts[idx]
	vm, err := h.Sys.NewVM(hyperalloc.Options{
		Name:      spec.Name,
		Candidate: spec.Candidate,
		Memory:    spec.Memory,
		CPUs:      spec.CPUs,
	})
	if err != nil {
		return nil, -1, fmt.Errorf("cluster: admit %q: %w", spec.Name, err)
	}
	h.vms = append(h.vms, vm)
	h.Broker.Attach(vm.VM, spec.Priority)
	c.byName[spec.Name] = vm
	c.home[spec.Name] = idx
	c.prio[spec.Name] = spec.Priority
	c.m.Admissions++
	c.cAdmissions.Inc()
	if forced {
		c.m.ForcedPlacements++
	}
	c.track.Instant("admit",
		trace.String("vm", spec.Name),
		trace.String("host", h.Name),
		trace.Uint("hint", hint),
		trace.Bool("forced", forced))
	h.track.Instant("admit", trace.String("vm", spec.Name))
	return vm, idx, nil
}

// place picks a destination for `need` scored bytes: best-fit (fullest
// host that still fits) over active non-draining hosts, then the first
// parked host, then — forced — the least-loaded non-draining host, then
// the least-loaded host of any kind except `exclude`. Returns -1 only
// when every host is excluded.
func (c *Cluster) place(need uint64, exclude int) (idx int, forced bool) {
	best, bestUsed := -1, uint64(0)
	for _, h := range c.hosts {
		if h.Index == exclude || h.draining || !c.active(h) {
			continue
		}
		used := c.cfg.Scorer.UsedBytes(h)
		if used+need <= h.Sys.Pool.Capacity() && (best == -1 || used > bestUsed) {
			best, bestUsed = h.Index, used
		}
	}
	if best >= 0 {
		return best, false
	}
	for _, h := range c.hosts {
		if h.Index == exclude || h.draining || c.active(h) {
			continue
		}
		return h.Index, false
	}
	for pass := 0; pass < 2; pass++ {
		least, leastUsed := -1, uint64(0)
		for _, h := range c.hosts {
			if h.Index == exclude || (pass == 0 && h.draining) {
				continue
			}
			used := c.cfg.Scorer.UsedBytes(h)
			if least == -1 || used < leastUsed {
				least, leastUsed = h.Index, used
			}
		}
		if least >= 0 {
			return least, true
		}
	}
	return -1, false
}

// Drain marks a host for maintenance: no new placements land on it, and
// each epoch the coordinator migrates one VM off (smallest expected
// transfer first) until it is empty.
func (c *Cluster) Drain(i int) {
	if c.hosts[i].draining {
		return
	}
	c.hosts[i].draining = true
	c.track.Instant("drain", trace.String("host", c.hosts[i].Name))
	c.hosts[i].track.Instant("drain")
}

// Undrain returns a drained host to service.
func (c *Cluster) Undrain(i int) {
	if !c.hosts[i].draining {
		return
	}
	c.hosts[i].draining = false
	c.track.Instant("undrain", trace.String("host", c.hosts[i].Name))
	c.hosts[i].track.Instant("undrain")
}

// ConsolidateOnce drains the least-loaded active host when the rest of
// the active fleet has scored headroom for its VMs (keeping each
// receiver's evacuation watermark clear). At most one consolidation runs
// at a time; returns the host index and true when a drain started.
func (c *Cluster) ConsolidateOnce() (int, bool) {
	if len(c.flights) > 0 {
		return -1, false
	}
	actives := 0
	cand, candUsed := -1, uint64(0)
	for _, h := range c.hosts {
		if h.draining {
			return -1, false // a consolidation or maintenance is in progress
		}
		if !c.active(h) {
			continue
		}
		actives++
		used := c.cfg.Scorer.UsedBytes(h)
		if len(h.vms) > 0 && (cand == -1 || used < candUsed) {
			cand, candUsed = h.Index, used
		}
	}
	if actives < 2 || cand == -1 {
		return -1, false
	}
	var need uint64
	for _, vm := range c.hosts[cand].vms {
		need += c.cfg.Scorer.ExpectedTransfer(vm)
	}
	var spare uint64
	for _, h := range c.hosts {
		if h.Index == cand || !c.active(h) {
			continue
		}
		used := c.cfg.Scorer.UsedBytes(h) + c.cfg.EvacuateBelow
		if cap := h.Sys.Pool.Capacity(); cap > used {
			spare += cap - used
		}
	}
	if spare < need {
		return -1, false
	}
	c.track.Instant("consolidate",
		trace.String("host", c.hosts[cand].Name),
		trace.Uint("need", need),
		trace.Uint("spare", spare))
	c.Drain(cand)
	return cand, true
}

// RunFor advances the fleet by d in bounded-lag epochs. onEpoch (may be
// nil) runs at every barrier after migrations and messages settle —
// scenarios apply demand, admit VMs, and drive drains from it. Returns
// the first audit or migration error.
func (c *Cluster) RunFor(d sim.Duration, onEpoch func(*Cluster) error) error {
	end := c.clock.Now().Add(d)
	for c.clock.Now() < end {
		next := c.clock.Now().Add(c.cfg.Lag)
		if next > end {
			next = end
		}
		if err := c.epoch(next, onEpoch); err != nil {
			return err
		}
	}
	return nil
}

// epoch advances every host group to the barrier in parallel, then runs
// the single-threaded coordinator pass.
func (c *Cluster) epoch(next sim.Time, onEpoch func(*Cluster) error) error {
	groups := c.groups()
	if err := runner.ForEach(c.run, len(groups), func(i int) error {
		advanceGroup(groups[i], next)
		return nil
	}); err != nil {
		return err
	}
	c.clock.AdvanceTo(next)
	c.m.Epochs++

	if err := c.finishMigrations(); err != nil {
		return err
	}
	c.startEvacuations()
	c.stepDrains()
	if onEpoch != nil {
		if err := onEpoch(c); err != nil {
			return err
		}
	}
	c.sample(next)
	c.obs.observe(c, next)
	if c.cfg.Audit && next.Sub(c.lastAudit) >= c.cfg.AuditEvery {
		c.lastAudit = next
		if err := c.AuditNow(); err != nil {
			return err
		}
	}
	return nil
}

// groups partitions the fleet for parallel advancement: hosts linked by
// an in-flight migration share a group (the engine lives on the source
// scheduler but mutates the destination pool), everyone else runs alone.
// Groups come back in ascending order of their lowest host index.
func (c *Cluster) groups() [][]*Host {
	parent := make([]int, len(c.hosts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, f := range c.flights {
		a, b := find(f.src), find(f.dst)
		if a != b {
			if b < a {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	byRoot := make(map[int][]*Host, len(c.hosts))
	var roots []int
	for i, h := range c.hosts {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r) // ascending: i iterates in order
		}
		byRoot[r] = append(byRoot[r], h)
	}
	groups := make([][]*Host, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// advanceGroup advances one group of hosts to the barrier. A singleton
// host just runs its queue; a migration-linked group interleaves the
// members' event queues by merged-clock stepping — always fire the
// earliest pending event across the group (ties: lowest member index) —
// so source and destination state mutate in a deterministic global
// order.
func advanceGroup(hs []*Host, next sim.Time) {
	if len(hs) == 1 {
		hs[0].Sys.Sched.RunUntil(next)
		return
	}
	for {
		best := -1
		var bt sim.Time
		for i, h := range hs {
			if t, ok := h.Sys.Sched.NextAt(); ok && t <= next && (best == -1 || t < bt) {
				best, bt = i, t
			}
		}
		if best == -1 {
			break
		}
		hs[best].Sys.Sched.Step()
	}
	for _, h := range hs {
		h.Sys.Sched.RunUntil(next)
	}
}

// finishMigrations completes cut-over migrations at the barrier: the VM
// wrapper moves to the destination host, its meter rebinds to the
// destination clock (both clocks sit at the barrier), and the
// destination broker takes over.
func (c *Cluster) finishMigrations() error {
	for i := 0; i < len(c.flights); {
		f := c.flights[i]
		if f.eng.Phase() != migrate.Done {
			i++
			continue
		}
		res := f.eng.Result()
		if res.Err != "" {
			return fmt.Errorf("cluster: migrate %s: %s", f.vm.Name, res.Err)
		}
		src, dst := c.hosts[f.src], c.hosts[f.dst]
		src.removeVM(f.vm)
		dst.vms = append(dst.vms, f.vm)
		f.vm.Sys = dst.Sys
		f.vm.Meter.SetClock(dst.Sys.Sched.Clock())
		dst.Broker.Attach(f.vm.VM, c.prio[f.vm.Name])
		c.home[f.vm.Name] = f.dst

		c.m.Migrations++
		c.cMigrations.Inc()
		c.m.MigratedBytes += res.TransferredBytes
		c.m.SkippedBytes += res.SkippedBytes
		c.m.Blackout += res.Downtime
		if res.Downtime > c.cfg.DowntimeTarget {
			c.m.DowntimeViolations++
			c.m.SLOViolations++
			c.cSLO.Inc()
		}
		c.track.Instant("migrate_done",
			trace.String("vm", f.vm.Name),
			trace.String("from", src.Name),
			trace.String("to", dst.Name),
			trace.String("reason", f.reason),
			trace.Uint("transferred", res.TransferredBytes),
			trace.Uint("skipped", res.SkippedBytes),
			trace.Int("downtime_ns", int64(res.Downtime)))
		dst.track.Instant("migrate_in", trace.String("vm", f.vm.Name))
		c.flights = append(c.flights[:i], c.flights[i+1:]...)
	}
	return nil
}

// startEvacuations drains the hosts' outboxes in index order and turns
// each watermark-evicted VM into a migration. This is the deterministic
// cross-host message merge: per-host order is the broker's own tick
// order, cross-host order is host index.
func (c *Cluster) startEvacuations() {
	for _, h := range c.hosts {
		for _, victim := range h.evac {
			c.beginMigration(h, c.byName[victim.Name], "evacuate")
		}
		h.evac = h.evac[:0]
	}
}

// stepDrains starts one outbound migration per draining host per epoch
// (smallest expected transfer first) until the host is empty.
func (c *Cluster) stepDrains() {
	for _, h := range c.hosts {
		if !h.draining || len(h.vms) == 0 {
			continue
		}
		if c.outbound(h.Index) > 0 {
			continue // rolling: one at a time per draining host
		}
		var victim *hyperalloc.VM
		var cost uint64
		for _, vm := range h.vms {
			if c.inFlight(vm.Name) {
				continue
			}
			if e := c.cfg.Scorer.ExpectedTransfer(vm); victim == nil || e < cost {
				victim, cost = vm, e
			}
		}
		if victim == nil {
			continue
		}
		h.Broker.Detach(victim.Name)
		c.beginMigration(h, victim, "drain")
	}
}

func (c *Cluster) outbound(host int) int {
	n := 0
	for _, f := range c.flights {
		if f.src == host {
			n++
		}
	}
	return n
}

func (c *Cluster) inFlight(name string) bool {
	for _, f := range c.flights {
		if f.vm.Name == name {
			return true
		}
	}
	return false
}

// beginMigration picks a destination for the VM and arms the engine on
// the source scheduler. With no destination (single-host fleets), or when
// the engine refuses the VM (a strategy it cannot serve, such as
// hyperalloc-skip on a guest without shared LLFree state), the VM is
// handed back to its broker and no flight starts.
func (c *Cluster) beginMigration(src *Host, vm *hyperalloc.VM, reason string) {
	if vm == nil || c.inFlight(vm.Name) {
		return
	}
	need := c.cfg.Scorer.ExpectedTransfer(vm)
	dst, forced := c.place(need, src.Index)
	if dst < 0 {
		src.Broker.Attach(vm.VM, c.prio[vm.Name])
		c.track.Instant("migrate_no_dest", trace.String("vm", vm.Name))
		return
	}
	eng, err := migrate.New(vm.VM, src.Sys.Sched, migrate.Config{
		Strategy:       c.cfg.Strategy,
		DestPool:       c.hosts[dst].Sys.Pool,
		DowntimeTarget: c.cfg.DowntimeTarget,
		MaxRounds:      c.cfg.MaxRounds,
		Audit:          c.cfg.Audit,
	})
	if err == nil {
		err = eng.Start()
	}
	if err != nil {
		src.Broker.Attach(vm.VM, c.prio[vm.Name])
		c.track.Instant("migrate_refused", trace.String("vm", vm.Name), trace.String("err", err.Error()))
		return
	}
	c.flights = append(c.flights, &flight{eng: eng, vm: vm, src: src.Index, dst: dst, reason: reason, started: c.clock.Now()})
	if forced {
		c.m.ForcedPlacements++
	}
	switch reason {
	case "evacuate":
		c.m.Evacuations++
		c.cEvacs.Inc()
		c.cfg.Obs.NoteEvacuation(c.clock.Now(), vm.Name, src.Name)
	case "drain":
		c.m.DrainMoves++
	}
	c.track.Instant("migrate_start",
		trace.String("vm", vm.Name),
		trace.String("from", src.Name),
		trace.String("to", c.hosts[dst].Name),
		trace.String("reason", reason),
		trace.Uint("expected", need))
	src.track.Instant("migrate_out", trace.String("vm", vm.Name))
}

// sample integrates the scoreboard over the epoch that just ended and
// refreshes the trace gauges.
func (c *Cluster) sample(now sim.Time) {
	dtMin := now.Sub(c.lastSample).Minutes()
	c.lastSample = now
	active := 0
	var rss uint64
	for _, h := range c.hosts {
		total := h.Sys.Pool.Total()
		rss += total
		if c.active(h) {
			active++
		}
		h.gRSS.Set(int64(total))
		h.gUsed.Set(int64(c.cfg.Scorer.UsedBytes(h)))
		h.gVMs.Set(int64(len(h.vms)))
		for _, vm := range h.vms {
			if h.Sys.Pool.Swapped(vm.Name) > c.cfg.SLOSwapBytes {
				c.m.SwapViolations++
				c.m.SLOViolations++
				c.cSLO.Inc()
			}
		}
	}
	if active > c.m.PeakActiveHosts {
		c.m.PeakActiveHosts = active
	}
	c.m.HostGiBMin += float64(active) * (float64(c.cfg.HostBytes) / float64(mem.GiB)) * dtMin
	c.m.RSSGiBMin += (float64(rss) / float64(mem.GiB)) * dtMin
	c.gActive.Set(int64(active))
	c.gInFlight.Set(int64(len(c.flights)))
}

// AuditNow runs the N-pool conservation auditor across every host and
// every VM (audit.Hosts: pool accounting, per-VM conservation, exactly
// one home, transfer aliases counted once).
func (c *Cluster) AuditNow() error {
	pools := make([]*hostmem.Pool, len(c.hosts))
	var vms []*vmm.VM
	for i, h := range c.hosts {
		pools[i] = h.Sys.Pool
		for _, vm := range h.vms {
			vms = append(vms, vm.VM)
		}
	}
	return audit.Hosts(pools, vms...)
}
