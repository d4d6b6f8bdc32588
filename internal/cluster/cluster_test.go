package cluster_test

import (
	"bytes"
	"testing"

	"hyperalloc"
	"hyperalloc/internal/broker"
	"hyperalloc/internal/cluster"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
)

// pinPolicy pins every VM's limit at its boot size: no shrinking, no
// growing — tests that want broker resize activity out of the picture
// use it so only placement, evacuation, and migration are in play.
type pinPolicy struct{}

func (pinPolicy) Name() string { return "pin" }
func (pinPolicy) Targets(now sim.Time, host broker.HostSignals, vms []broker.VMSignals) []broker.Target {
	out := make([]broker.Target, 0, len(vms))
	for _, v := range vms {
		out = append(out, broker.Target{VM: v.Name, Bytes: v.InitialBytes, Reason: "pin"})
	}
	return out
}

const vmBytes = 2*mem.GiB + 256*mem.MiB

func spec(name string) cluster.VMSpec {
	return cluster.VMSpec{Name: name, Memory: vmBytes, CPUs: 2}
}

// TestScorerSignals pins the two scorers' defining difference: after a
// guest frees memory, the naive-RSS estimate stays inflated while the
// allocator-aware one — reading the shared LLFree area state — drops.
func TestScorerSignals(t *testing.T) {
	c := cluster.New(cluster.Config{
		Hosts:     1,
		HostBytes: 8 * mem.GiB,
		Policy:    pinPolicy{},
		Seed:      1,
	})
	vm, idx, err := c.Admit(spec("vm0"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("admitted to host %d, want 0", idx)
	}
	r, err := vm.Guest.AllocAnon(0, 3*mem.GiB/2)
	if err != nil {
		t.Fatal(err)
	}

	h := c.Host(0)
	naive, aware := cluster.NaiveRSS{}, cluster.AllocatorAware{}
	if got, want := naive.UsedBytes(h), vm.RSS(); got != want {
		t.Fatalf("naive used = %d, want pool RSS %d", got, want)
	}
	beforeAware := aware.UsedBytes(h)

	r.Free()
	if got, want := naive.UsedBytes(h), vm.RSS(); got != want {
		t.Fatalf("naive used after free = %d, want %d (RSS unchanged by guest frees)", got, want)
	}
	afterAware := aware.UsedBytes(h)
	if afterAware+mem.GiB > beforeAware {
		t.Fatalf("allocator-aware used only fell %s (%d -> %d), want > 1 GiB drop from freed memory",
			mem.HumanBytes(beforeAware-afterAware), beforeAware, afterAware)
	}
	if naiveXfer, awareXfer := naive.ExpectedTransfer(vm), aware.ExpectedTransfer(vm); awareXfer+mem.GiB > naiveXfer {
		t.Fatalf("expected transfer: aware %d vs naive %d, want aware at least 1 GiB smaller", awareXfer, naiveXfer)
	}

	if got := cluster.ReclaimableBytes(vm); got == 0 {
		t.Fatal("ReclaimableBytes = 0 for a HyperAlloc VM with freed areas")
	}
}

// TestReclaimableBytesNonHyperAlloc: the hypervisor has no window into a
// baseline VM's allocator, so its reclaimable estimate must be zero and
// the two scorers must agree on it.
func TestReclaimableBytesNonHyperAlloc(t *testing.T) {
	c := cluster.New(cluster.Config{Hosts: 1, HostBytes: 8 * mem.GiB, Policy: pinPolicy{}, Seed: 2})
	s := spec("base0")
	s.Candidate = hyperalloc.CandidateBaseline
	vm, _, err := c.Admit(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := vm.Guest.AllocAnon(0, mem.GiB)
	if err != nil {
		t.Fatal(err)
	}
	r.Free()
	if got := cluster.ReclaimableBytes(vm); got != 0 {
		t.Fatalf("ReclaimableBytes(baseline) = %d, want 0", got)
	}
	aware := cluster.AllocatorAware{}
	if aware.ExpectedTransfer(vm) != vm.RSS() {
		t.Fatal("aware scorer must degrade to RSS for opaque VMs")
	}
}

// TestAdmitBestFit: placement wakes the first parked host only when
// nothing active fits, packs onto the fullest fitting host otherwise,
// and records duplicate names as errors.
func TestAdmitBestFit(t *testing.T) {
	c := cluster.New(cluster.Config{
		Hosts:     3,
		HostBytes: 5 * mem.GiB,
		Policy:    pinPolicy{},
		Seed:      3,
	})
	// First admission: fleet is parked; host0 wakes.
	if _, idx, err := c.Admit(spec("vm0")); err != nil || idx != 0 {
		t.Fatalf("vm0 -> host %d, err %v; want host 0", idx, err)
	}
	// Second: host0 is active and fits the hint; no second host wakes.
	if _, idx, err := c.Admit(spec("vm1")); err != nil || idx != 0 {
		t.Fatalf("vm1 -> host %d, err %v; want host 0 (best fit)", idx, err)
	}
	if c.ActiveHosts() != 1 {
		t.Fatalf("active hosts = %d, want 1", c.ActiveHosts())
	}
	// Load host0 so the next hint cannot fit: the packer must wake host1
	// rather than overcommit.
	for _, name := range []string{"vm0", "vm1"} {
		if _, err := c.VM(name).Guest.AllocAnon(0, 3*mem.GiB/2); err != nil {
			t.Fatal(err)
		}
	}
	big := spec("vm2")
	big.DemandHint = 3 * mem.GiB
	if _, idx, err := c.Admit(big); err != nil || idx != 1 {
		t.Fatalf("vm2 -> host %d, err %v; want host 1 (host0 full)", idx, err)
	}
	if _, _, err := c.Admit(spec("vm0")); err == nil {
		t.Fatal("duplicate name admitted")
	}
	if c.Metrics().Admissions != 3 {
		t.Fatalf("admissions = %d, want 3", c.Metrics().Admissions)
	}
}

// TestDrainMovesEveryVM: draining a host migrates its VMs off one per
// epoch (rolling) until empty, the fleet stays conservation-clean every
// simulated second, and the host parks once drained.
func TestDrainMovesEveryVM(t *testing.T) {
	c := cluster.New(cluster.Config{
		Hosts:     2,
		HostBytes: 16 * mem.GiB,
		Policy:    pinPolicy{},
		Audit:     true,
		Seed:      4,
	})
	for _, name := range []string{"vm0", "vm1"} {
		vm, idx, err := c.Admit(spec(name))
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatalf("%s -> host %d, want 0", name, idx)
		}
		if _, err := vm.Guest.AllocAnon(0, 512*mem.MiB); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain(0)
	if err := c.RunFor(10*sim.Second, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vm0", "vm1"} {
		if got := c.HostOf(name); got != 1 {
			t.Fatalf("%s on host %d after drain, want 1", name, got)
		}
	}
	if n := len(c.Host(0).VMs()); n != 0 {
		t.Fatalf("drained host still has %d VMs", n)
	}
	if c.ActiveHosts() != 1 {
		t.Fatalf("active hosts = %d, want 1 (drained host parks)", c.ActiveHosts())
	}
	m := c.Metrics()
	if m.DrainMoves != 2 || m.Migrations != 2 {
		t.Fatalf("drain moves %d / migrations %d, want 2/2", m.DrainMoves, m.Migrations)
	}
	if m.MigratedBytes == 0 {
		t.Fatal("migrations moved 0 bytes")
	}
	if err := c.AuditNow(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRefusedMigrationKeepsVM: the default hyperalloc-skip strategy
// cannot move a virtio-mem guest (no shared LLFree state). Draining its
// host must hand the VM back to its broker and record the refusal, not
// panic mid-epoch, start a flight or count a migration.
func TestDrainRefusedMigrationKeepsVM(t *testing.T) {
	tr := trace.New()
	c := cluster.New(cluster.Config{Hosts: 2, HostBytes: 8 * mem.GiB, Trace: tr})
	vm := spec("vmem0")
	vm.Candidate = hyperalloc.CandidateVirtioMem
	if _, idx, err := c.Admit(vm); err != nil || idx != 0 {
		t.Fatalf("admit: host %d, err %v", idx, err)
	}
	c.Drain(0)
	if err := c.RunFor(4*sim.Second, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.HostOf("vmem0"); got != 0 {
		t.Fatalf("vmem0 on host %d, want 0 (migration refused)", got)
	}
	if m := c.Metrics(); m.Migrations != 0 || m.DrainMoves != 0 || c.InFlight() != 0 {
		t.Fatalf("migrations %d / drain moves %d / in flight %d, want 0/0/0",
			m.Migrations, m.DrainMoves, c.InFlight())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"migrate_refused"`)) {
		t.Fatal("trace records no migrate_refused instant")
	}
	if !c.Host(0).Broker.Detach("vmem0") {
		t.Fatal("vmem0 was not handed back to its broker")
	}
}

// TestEvacuationClosesTheLoop: host pressure -> broker watermark ->
// outbox -> cluster migration -> destination broker adoption. The full
// federated path, audited every simulated second.
func TestEvacuationClosesTheLoop(t *testing.T) {
	c := cluster.New(cluster.Config{
		Hosts:         2,
		HostBytes:     6 * mem.GiB,
		Policy:        pinPolicy{},
		EvacuateBelow: 2 * mem.GiB,
		EvacuateHold:  2,
		Audit:         true,
		Seed:          5,
	})
	for _, name := range []string{"vm0", "vm1"} {
		s := spec(name)
		s.Memory = 3 * mem.GiB
		vm, idx, err := c.Admit(s)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatalf("%s -> host %d, want 0", name, idx)
		}
		if _, err := vm.Guest.AllocAnon(0, 2*mem.GiB+256*mem.MiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunFor(15*sim.Second, nil); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Evacuations == 0 {
		t.Fatal("watermark pressure never evacuated")
	}
	if m.Migrations == 0 {
		t.Fatal("evacuation never completed as a migration")
	}
	moved := 0
	for _, name := range []string{"vm0", "vm1"} {
		if c.HostOf(name) == 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no VM landed on host1 after evacuation")
	}
	if c.InFlight() != 0 {
		t.Fatalf("%d migrations still in flight after 15s", c.InFlight())
	}
	if err := c.AuditNow(); err != nil {
		t.Fatal(err)
	}
}

// runDeterminism drives a fleet with drains and evacuations at the given
// worker count and returns its metrics plus the full Chrome trace.
func runDeterminism(t *testing.T, workers int) (cluster.Metrics, []byte) {
	t.Helper()
	tr := trace.New()
	c := cluster.New(cluster.Config{
		Hosts:         3,
		HostBytes:     6 * mem.GiB,
		Workers:       workers,
		Policy:        pinPolicy{},
		EvacuateBelow: 2 * mem.GiB,
		EvacuateHold:  2,
		Audit:         true,
		Seed:          6,
		Trace:         tr,
	})
	for _, name := range []string{"vm0", "vm1", "vm2"} {
		vm, _, err := c.Admit(spec(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest.AllocAnon(0, 3*mem.GiB/2); err != nil {
			t.Fatal(err)
		}
	}
	epoch := 0
	err := c.RunFor(12*sim.Second, func(c *cluster.Cluster) error {
		epoch++
		if epoch == 6 {
			c.Drain(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return c.Metrics(), buf.Bytes()
}

// TestWorkerCountInvariance is the cluster's core determinism pin: the
// bounded-lag epoch protocol must produce byte-identical traces and
// identical metrics whether host groups advance on 1 worker or 4.
func TestWorkerCountInvariance(t *testing.T) {
	m1, t1 := runDeterminism(t, 1)
	m4, t4 := runDeterminism(t, 4)
	if m1 != m4 {
		t.Fatalf("metrics diverge across worker counts:\n  1: %+v\n  4: %+v", m1, m4)
	}
	if !bytes.Equal(t1, t4) {
		t.Fatal("Chrome traces differ between Workers=1 and Workers=4")
	}
	if m1.Migrations == 0 {
		t.Fatal("determinism scenario exercised no migrations — pin is vacuous")
	}
}

// TestClusterRegistryKeys pins the cluster's stable telemetry keys so
// dashboards and the summary exporter can rely on them.
func TestClusterRegistryKeys(t *testing.T) {
	tr := trace.New()
	c := cluster.New(cluster.Config{Hosts: 2, HostBytes: 8 * mem.GiB, Policy: pinPolicy{}, Seed: 7, Trace: tr})
	if _, _, err := c.Admit(spec("vm0")); err != nil {
		t.Fatal(err)
	}
	reg := tr.Registry()
	if got := reg.Counter("cluster/admissions").Value(); got != 1 {
		t.Fatalf("cluster/admissions = %d, want 1", got)
	}
	names := map[string]bool{}
	for _, g := range reg.Gauges() {
		names[g.Name()] = true
	}
	for _, want := range []string{
		"cluster/active_hosts",
		"cluster/in_flight",
		"cluster/host0/rss_bytes",
		"cluster/host0/used_bytes",
		"cluster/host0/vms",
		"cluster/host1/rss_bytes",
	} {
		if !names[want] {
			t.Errorf("registry missing gauge %q", want)
		}
	}
	for _, want := range []string{
		"cluster/admissions", "cluster/migrations",
		"cluster/evacuations", "cluster/slo_violations",
	} {
		found := false
		for _, cn := range reg.Counters() {
			if cn.Name() == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing counter %q", want)
		}
	}
}

// TestConsolidateOnce: with the fleet quiet and one near-empty host, a
// consolidation pass drains it; with only one active host, it refuses.
func TestConsolidateOnce(t *testing.T) {
	c := cluster.New(cluster.Config{
		Hosts:     2,
		HostBytes: 16 * mem.GiB,
		Policy:    pinPolicy{},
		Audit:     true,
		Seed:      8,
	})
	anchor := spec("vm0")
	anchor.Memory = 14 * mem.GiB
	if _, _, err := c.Admit(anchor); err != nil {
		t.Fatal(err)
	}
	if idx, _ := c.ConsolidateOnce(); idx != -1 {
		t.Fatalf("consolidated with a single active host (got %d)", idx)
	}
	// Load host0 so vm1's hint cannot fit there and host1 wakes.
	if _, err := c.VM("vm0").Guest.AllocAnon(0, 12*mem.GiB); err != nil {
		t.Fatal(err)
	}
	big := spec("vm1")
	big.DemandHint = 4*mem.GiB + 512*mem.MiB
	vm1, idx1, err := c.Admit(big)
	if err != nil || idx1 != 1 {
		t.Fatalf("vm1 -> host %d, err %v; want host 1", idx1, err)
	}
	if _, err := vm1.Guest.AllocAnon(0, 512*mem.MiB); err != nil {
		t.Fatal(err)
	}
	// host1 is now the near-empty active host and host0 has scored room
	// for its one small VM: consolidation drains host1.
	idx, ok := c.ConsolidateOnce()
	if !ok || idx != 1 {
		t.Fatalf("consolidate = (%d, %v), want (1, true): host1 is the near-empty one", idx, ok)
	}
	if !c.Host(1).Draining() {
		t.Fatal("consolidation did not mark host1 draining")
	}
	if err := c.RunFor(8*sim.Second, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.HostOf("vm1"); got != 0 {
		t.Fatalf("vm1 on host %d after consolidation, want 0", got)
	}
	c.Undrain(1)
	if c.Host(1).Draining() {
		t.Fatal("undrain did not clear the flag")
	}
	if err := c.AuditNow(); err != nil {
		t.Fatal(err)
	}
}
