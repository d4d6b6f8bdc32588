// Package broker is the host memory broker: a deterministic control loop
// that runs inside the simulated event loop, samples per-VM demand and
// free-memory signals, and drives the reclamation mechanisms'
// Shrink/Grow limits across all VMs of one host according to a pluggable
// Policy (static split, watermark, proportional share).
//
// The broker is the management layer the paper leaves to future work
// (Sec. 6 discusses host-side fallback only as swapping): the mechanisms
// expose fast de/inflation, the broker decides who gets the memory.
//
// Determinism rules (DESIGN.md "Broker"): VMs are kept in attach order —
// never in map order — signals are sampled before the policy runs,
// policies are stateless, and all per-VM history a policy may need is
// part of the sampled signals. Two runs with the same seed produce
// byte-identical event logs at any worker count.
package broker

import (
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/metrics"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/vmm"
)

// Config parameterizes a Broker.
type Config struct {
	// Policy decides the per-VM targets each tick (required).
	Policy Policy
	// Period is the control-loop interval (default 1 s).
	Period sim.Duration
	// DemandAlpha is the EWMA smoothing factor for the demand signal
	// (default 0.3).
	DemandAlpha float64
	// BurstWindow is the lookback for the recent-peak demand signal
	// (default 30 s).
	BurstWindow sim.Duration
	// MinLimit floors every target the broker applies (default 1 GiB) so
	// a policy can never squeeze a VM below its kernel working set.
	MinLimit uint64
	// VMAutoPeriod, when non-zero, retunes each attached VM's own
	// automatic-reclamation period (vmm.AutoTuner): with the broker
	// driving the limits, the per-mechanism auto mode is typically slowed
	// down or left disabled.
	VMAutoPeriod sim.Duration
	// EvacuateBelow arms the evacuation escape hatch: when the host's
	// free memory stays below this watermark for EvacuateHold consecutive
	// ticks even though the policy has been shrinking, the broker picks
	// the largest-RSS VM, detaches it, and hands it to EvacuateFn —
	// typically a live migration to another host (internal/migrate).
	// 0 disables evacuation. Meaningless on an unlimited-capacity pool.
	EvacuateBelow uint64
	// EvacuateHold is the number of consecutive below-watermark ticks
	// before an evacuation fires (default 5): one bad sample is pressure,
	// five in a row is a host that reclamation alone cannot fix.
	EvacuateHold int
	// EvacuateFn receives the chosen VM after it is detached from the
	// control loop (required when EvacuateBelow is set).
	EvacuateFn func(vm *vmm.VM)
	// TierPolicy, when set, assigns each attached VM's eviction tier (the
	// hostmem backend its swapped bytes land on) at attach time and on
	// every tick — the fourth policy axis, inflate vs. swap-to-tier vs.
	// migrate. nil leaves every VM on the pool's default tier (NVMe).
	TierPolicy TierPolicy
	// VictimFn overrides evacuation victim selection: it receives the
	// attached VMs in attach order and returns the one to hand to
	// EvacuateFn, or nil to skip this opportunity (the hold counter
	// re-arms). nil VictimFn means the default, LargestRSSVictim. A
	// cluster scheduler uses this to evacuate the smallest expected
	// transfer — computed from the shared LLFree free-page counts —
	// instead of the biggest resident set.
	VictimFn func(vms []*vmm.VM) *vmm.VM
	// Trace records tick spans, decision instants, and the broker
	// counters on the tracer (nil = off; the counters then live in a
	// standalone registry so the accessors keep working).
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = sim.Second
	}
	if c.DemandAlpha == 0 {
		c.DemandAlpha = 0.3
	}
	if c.BurstWindow == 0 {
		c.BurstWindow = 30 * sim.Second
	}
	if c.MinLimit == 0 {
		c.MinLimit = mem.GiB
	}
	if c.EvacuateHold == 0 {
		c.EvacuateHold = 5
	}
	return c
}

// Event is one structured decision record: every resize the broker
// attempts is logged with the signal it acted on and the outcome.
type Event struct {
	T      sim.Time
	VM     string
	Policy string
	Action string // "grow" | "shrink"
	From   uint64 // limit before
	Want   uint64 // clamped, rounded target
	To     uint64 // limit after (partial progress shows here)
	Reason string
	Err    string // non-empty when the mechanism returned an error
}

// An evacuation is logged as Action "evacuate" with From/To carrying the
// VM's RSS (the bytes leaving the host) and Want the free-watermark.

// managed is the broker's per-VM state.
type managed struct {
	vm       *vmm.VM
	priority int

	demand *metrics.Series // DemandBytes per tick
	free   *metrics.Series // FreeBytes per tick

	ewma       float64
	hasEwma    bool
	lastResize sim.Time
	hasResize  bool
}

// Broker is one host's memory balancing loop.
type Broker struct {
	cfg   Config
	sched *sim.Scheduler
	pool  *hostmem.Pool
	vms   []*managed // attach order; never iterated via maps
	event sim.Handle

	// Events is the structured decision log.
	Events []Event

	// Counters live in the trace registry (Config.Trace's when set, a
	// standalone one otherwise) under stable "broker/..." keys; read them
	// through the accessor methods.
	// lowTicks counts consecutive ticks with host free memory below the
	// evacuation watermark.
	lowTicks int

	track       *trace.Track
	ticks       *trace.Counter
	grows       *trace.Counter
	shrinks     *trace.Counter
	emergencies *trace.Counter
	errors      *trace.Counter
	evacuations *trace.Counter
	tierMoves   *trace.Counter
}

// New creates a broker on the host described by sched and pool.
func New(sched *sim.Scheduler, pool *hostmem.Pool, cfg Config) *Broker {
	if cfg.Policy == nil {
		panic("broker: Config.Policy is required")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Trace.Registry()
	if reg == nil {
		reg = trace.NewRegistry()
	}
	return &Broker{
		cfg: cfg, sched: sched, pool: pool,
		track:       cfg.Trace.Track("broker"),
		ticks:       reg.Counter("broker/ticks"),
		grows:       reg.Counter("broker/grows"),
		shrinks:     reg.Counter("broker/shrinks"),
		emergencies: reg.Counter("broker/emergencies"),
		errors:      reg.Counter("broker/errors"),
		evacuations: reg.Counter("broker/evacuations"),
		tierMoves:   reg.Counter("broker/tier_moves"),
	}
}

// Ticks returns the number of control cycles run.
func (b *Broker) Ticks() uint64 { return b.ticks.Value() }

// Grows returns the number of grow resizes attempted.
func (b *Broker) Grows() uint64 { return b.grows.Value() }

// Shrinks returns the number of shrink resizes attempted.
func (b *Broker) Shrinks() uint64 { return b.shrinks.Value() }

// Emergencies returns the number of emergency-flagged resizes.
func (b *Broker) Emergencies() uint64 { return b.emergencies.Value() }

// Errors returns the number of resizes the mechanism failed.
func (b *Broker) Errors() uint64 { return b.errors.Value() }

// Evacuations returns the number of VMs handed to EvacuateFn.
func (b *Broker) Evacuations() uint64 { return b.evacuations.Value() }

// TierMoves returns the number of eviction-tier reassignments the tier
// policy made.
func (b *Broker) TierMoves() uint64 { return b.tierMoves.Value() }

// Policy returns the configured policy.
func (b *Broker) Policy() Policy { return b.cfg.Policy }

// Attach registers a VM with the broker. Priority feeds the
// proportional-share weight (1+priority); 0 is the normal class. When
// Config.VMAutoPeriod is set, the VM's own automatic-reclamation period
// is retuned through vmm.AutoTuner.
func (b *Broker) Attach(vm *vmm.VM, priority int) {
	b.vms = append(b.vms, &managed{
		vm:       vm,
		priority: priority,
		demand:   &metrics.Series{Name: vm.Name + "/demand"},
		free:     &metrics.Series{Name: vm.Name + "/free"},
	})
	if b.cfg.VMAutoPeriod > 0 {
		vm.SetAutoPeriod(b.cfg.VMAutoPeriod)
	}
	if b.cfg.TierPolicy != nil {
		// Place the tier choice before the VM's first eviction can happen.
		// Only boot-time signals exist yet; adaptive policies refine the
		// choice on the first tick.
		b.applyTier(b.sched.Now(), HostSignals{Capacity: b.pool.Capacity(), Total: b.pool.Total()},
			VMSignals{Name: vm.Name, InitialBytes: vm.InitialBytes, Limit: vm.Limit(), RSS: vm.RSS()})
	}
}

// Detach removes a VM from the control loop (attach order of the rest is
// preserved); reports whether it was attached. The broker stops resizing
// it immediately — an evacuated VM belongs to the migration engine, and
// after cut-over to a different host's broker.
func (b *Broker) Detach(name string) bool {
	for i, m := range b.vms {
		if m.vm.Name == name {
			b.vms = append(b.vms[:i], b.vms[i+1:]...)
			return true
		}
	}
	return false
}

// Start schedules the control loop; the first tick fires after one
// period.
func (b *Broker) Start() {
	b.event = b.sched.After(b.cfg.Period, "broker/tick", b.tick)
}

// tick runs one control cycle and re-arms the next one period later.
func (b *Broker) tick() {
	b.Tick()
	b.event = b.sched.After(b.cfg.Period, "broker/tick", b.tick)
}

// Stop cancels the control loop.
func (b *Broker) Stop() {
	b.sched.Cancel(b.event)
	b.event = sim.Handle{}
}

// Tick runs one control cycle: sample signals, ask the policy for
// targets, apply them (shrinks before grows, so freed host memory is
// available to the growers within the same tick).
func (b *Broker) Tick() {
	b.ticks.Inc()
	now := b.sched.Now()
	if b.track.Enabled() {
		b.track.Begin("tick", trace.Int("vms", int64(len(b.vms))))
		defer b.track.End()
	}
	host, vms := b.sample(now)
	if b.cfg.TierPolicy != nil {
		for _, v := range vms {
			b.applyTier(now, host, v)
		}
	}
	targets := b.cfg.Policy.Targets(now, host, vms)

	// Two passes over the policy's (deterministic) target order.
	for pass := 0; pass < 2; pass++ {
		for _, t := range targets {
			m := b.byName(t.VM)
			if m == nil {
				continue // policy named an unknown VM; ignore
			}
			want := b.clamp(t.Bytes, m.vm.InitialBytes)
			cur := m.vm.Limit()
			if want == cur {
				continue
			}
			shrink := want < cur
			if (pass == 0) != shrink {
				continue
			}
			b.apply(now, m, want, t)
		}
	}
	b.maybeEvacuate(now)
}

// maybeEvacuate fires the evacuation escape hatch: re-read host free
// memory after this tick's resizes took effect — if even post-shrink
// pressure stays below the watermark for EvacuateHold consecutive ticks,
// reclamation alone cannot fix this host, and the largest-RSS VM (ties:
// attach order) is detached and handed to EvacuateFn.
func (b *Broker) maybeEvacuate(now sim.Time) {
	if b.cfg.EvacuateBelow == 0 || b.pool.Capacity() == 0 || len(b.vms) == 0 {
		return
	}
	var free uint64
	if c, t := b.pool.Capacity(), b.pool.Total(); c > t {
		free = c - t
	}
	if free >= b.cfg.EvacuateBelow {
		b.lowTicks = 0
		return
	}
	b.lowTicks++
	if b.lowTicks < b.cfg.EvacuateHold {
		return
	}
	candidates := make([]*vmm.VM, len(b.vms))
	for i, m := range b.vms {
		candidates[i] = m.vm
	}
	pick := b.cfg.VictimFn
	if pick == nil {
		pick = LargestRSSVictim
	}
	victim := pick(candidates)
	if victim == nil {
		b.lowTicks = 0
		return
	}
	rss := victim.RSS()
	b.Events = append(b.Events, Event{
		T: now, VM: victim.Name, Policy: b.cfg.Policy.Name(),
		Action: "evacuate", From: rss, Want: b.cfg.EvacuateBelow, To: rss,
		Reason: "host free below evacuation watermark",
	})
	b.evacuations.Inc()
	b.track.Instant("evacuate",
		trace.String("vm", victim.Name),
		trace.Uint("rss", rss),
		trace.Uint("free", free),
		trace.Uint("watermark", b.cfg.EvacuateBelow))
	b.Detach(victim.Name)
	b.lowTicks = 0
	if b.cfg.EvacuateFn != nil {
		b.cfg.EvacuateFn(victim)
	}
}

// LargestRSSVictim is the default evacuation victim policy: the VM with
// the largest resident set, ties broken toward the earliest attach —
// evacuating the biggest RSS frees the most host memory per migration.
func LargestRSSVictim(vms []*vmm.VM) *vmm.VM {
	if len(vms) == 0 {
		return nil
	}
	victim := vms[0]
	for _, vm := range vms[1:] {
		if vm.RSS() > victim.RSS() {
			victim = vm
		}
	}
	return victim
}

// sample reads every VM's signals and the host aggregate, updating the
// broker's series and EWMA state.
func (b *Broker) sample(now sim.Time) (HostSignals, []VMSignals) {
	vms := make([]VMSignals, len(b.vms))
	var provisioned uint64
	for i, m := range b.vms {
		demand := m.vm.DemandBytes()
		free := m.vm.FreeBytes()
		m.demand.Add(now, float64(demand))
		m.free.Add(now, float64(free))
		if !m.hasEwma {
			m.ewma, m.hasEwma = float64(demand), true
		} else {
			m.ewma = b.cfg.DemandAlpha*float64(demand) + (1-b.cfg.DemandAlpha)*m.ewma
		}
		var since sim.Duration = 1 << 62 // "never resized"
		if m.hasResize {
			since = now.Sub(m.lastResize)
		}
		recent := now - sim.Time(b.cfg.BurstWindow)
		if sim.Time(b.cfg.BurstWindow) > now {
			recent = 0
		}
		limit := m.vm.Limit()
		provisioned += limit
		vms[i] = VMSignals{
			Name:         m.vm.Name,
			Priority:     m.priority,
			InitialBytes: m.vm.InitialBytes,
			Limit:        limit,
			RSS:          m.vm.RSS(),
			SwappedBytes: b.pool.Swapped(m.vm.Name),
			FreeBytes:    free,
			DemandBytes:  demand,
			DemandEWMA:   m.ewma,
			DemandRecent: uint64(m.demand.MaxSince(recent)),
			SinceResize:  since,
		}
	}
	host := HostSignals{
		Capacity:    b.pool.Capacity(),
		Total:       b.pool.Total(),
		Provisioned: provisioned,
	}
	if host.Capacity > host.Total {
		host.Free = host.Capacity - host.Total
	}
	return host, vms
}

// apply performs one resize and records the decision event.
func (b *Broker) apply(now sim.Time, m *managed, want uint64, t Target) {
	from := m.vm.Limit()
	action := "grow"
	if want < from {
		action = "shrink"
	}
	err := m.vm.SetMemLimit(want)
	ev := Event{
		T:      now,
		VM:     m.vm.Name,
		Policy: b.cfg.Policy.Name(),
		Action: action,
		From:   from,
		Want:   want,
		To:     m.vm.Limit(),
		Reason: t.Reason,
	}
	if err != nil {
		ev.Err = err.Error()
		b.errors.Inc()
	}
	b.Events = append(b.Events, ev)
	if action == "grow" {
		b.grows.Inc()
	} else {
		b.shrinks.Inc()
	}
	if t.Emergency {
		b.emergencies.Inc()
	}
	// The decision instant carries the full Event schema with a fixed
	// attribute set and order — broker_schema_test.go pins it.
	b.track.Instant("decision",
		trace.String("vm", ev.VM),
		trace.String("policy", ev.Policy),
		trace.String("action", ev.Action),
		trace.Uint("from", ev.From),
		trace.Uint("want", ev.Want),
		trace.Uint("to", ev.To),
		trace.String("reason", ev.Reason),
		trace.String("err", ev.Err))
	m.lastResize, m.hasResize = now, true
}

// clamp bounds a raw policy target to [MinLimit, initial] and rounds it
// up to a huge-page multiple (every mechanism's coarsest granularity).
func (b *Broker) clamp(bytes, initial uint64) uint64 {
	if bytes < b.cfg.MinLimit {
		bytes = b.cfg.MinLimit
	}
	bytes = (bytes + mem.HugeSize - 1) / mem.HugeSize * mem.HugeSize
	if bytes > initial {
		bytes = initial
	}
	return bytes
}

// byName resolves a target's VM by linear scan (attach order, tiny N).
func (b *Broker) byName(name string) *managed {
	for _, m := range b.vms {
		if m.vm.Name == name {
			return m
		}
	}
	return nil
}
