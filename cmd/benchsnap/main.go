// Command benchsnap captures the repository's performance trajectory: it
// runs the hot-path microbenchmarks (EPT range ops vs per-frame loops,
// scheduler steady state and cancel storms, LLFree claim churn, batched
// cost charging, fleet epoch stepping, checkpoint save/restore)
// in-process, writes the numbers as a BENCH_<n>.json snapshot, and
// compares against the latest checked-in snapshot. Fig. 4 matrix
// throughput is measured end to end by perfbench and by
// `hyperallocbench -exp fig4|speedup`, not here.
//
// Two classes of metric get different treatment:
//
//   - Dimensionless gates (range-vs-per-frame speedups, allocs/op) are
//     hardware-independent and are gated on every -compare run: speedups
//     must not regress more than 10%, allocs/op must match exactly
//     (steady-state scheduling is pinned to zero allocations).
//   - Absolute numbers (ns/op) are recorded for the trajectory
//     but only gated under -strict, because CI hardware differs from the
//     machine that produced the checked-in snapshot.
//
// Usage:
//
//	benchsnap -out BENCH_7.json            # capture a new snapshot
//	benchsnap -compare                     # gate against latest BENCH_*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"hyperalloc/internal/cluster"
	"hyperalloc/internal/costmodel"
	"hyperalloc/internal/ept"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/llfree"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/obs"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/spec"
)

// Snapshot is the checked-in benchmark record.
type Snapshot struct {
	Schema int    `json:"schema"`
	Go     string `json:"go"`
	CPUs   int    `json:"cpus"`
	// Metrics are absolute, hardware-dependent numbers (ns/op) —
	// the trajectory. Gated only under -strict.
	Metrics map[string]float64 `json:"metrics"`
	// Gates are dimensionless, hardware-independent numbers (speedup
	// ratios, allocs/op). Always gated by -compare.
	Gates map[string]float64 `json:"gates"`
}

func main() {
	out := flag.String("out", "", "write the snapshot to this file (e.g. BENCH_7.json)")
	compare := flag.Bool("compare", false, "compare against the latest checked-in BENCH_*.json and fail on >10% regression")
	strict := flag.Bool("strict", false, "also gate absolute ns/op (same-machine comparisons only)")
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json snapshots")
	flag.Parse()

	snap := capture()

	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	os.Stdout.Write(b)

	if *compare {
		prev, name := latestSnapshot(*dir, *out)
		if prev == nil {
			fmt.Println("benchsnap: no previous snapshot to compare against")
		} else {
			fmt.Printf("benchsnap: comparing against %s\n", name)
			if errs := compareSnapshots(prev, snap, *strict); len(errs) > 0 {
				for _, e := range errs {
					fmt.Fprintln(os.Stderr, "REGRESSION:", e)
				}
				os.Exit(1)
			}
			fmt.Println("benchsnap: no regressions")
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *out)
	}
}

// capture runs every benchmark and assembles the snapshot.
func capture() *Snapshot {
	s := &Snapshot{
		Schema:  1,
		Go:      runtime.Version(),
		CPUs:    runtime.NumCPU(),
		Metrics: map[string]float64{},
		Gates:   map[string]float64{},
	}

	for _, pages := range []uint64{1, 64, 512} {
		rangeNs, _ := run(benchEPTRange(pages))
		frameNs, _ := run(benchEPTPerFrame(pages))
		s.Metrics[fmt.Sprintf("ept_range_%d_ns_op", pages)] = rangeNs
		s.Metrics[fmt.Sprintf("ept_perframe_%d_ns_op", pages)] = frameNs
		s.Gates[fmt.Sprintf("ept_speedup_%d", pages)] = frameNs / rangeNs
	}

	steadyNs, steadyAllocs := run(benchSchedulerSteady)
	s.Metrics["sched_steady_ns_op"] = steadyNs
	s.Gates["sched_steady_allocs_op"] = steadyAllocs
	cancelNs, cancelAllocs := run(benchSchedulerCancelHeavy)
	s.Metrics["sched_cancel_heavy_ns_op"] = cancelNs
	s.Gates["sched_cancel_heavy_allocs_op"] = cancelAllocs

	llNs, _ := run(benchLLFreeGetPut)
	s.Metrics["llfree_getput_ns_op"] = llNs

	crNs, crAllocs := run(benchChargeRange)
	s.Metrics["chargerange_512_ns_op"] = crNs
	s.Gates["chargerange_allocs_op"] = crAllocs

	clNs, _ := run(benchClusterEpoch)
	s.Metrics["cluster_epoch_ns_op"] = clNs

	orNs, orAllocs := run(benchObsRollup)
	s.Metrics["obs_rollup_ns_op"] = orNs
	s.Gates["obs_rollup_allocs_op"] = orAllocs
	oaNs, _ := run(benchObsAlertScan)
	s.Metrics["obs_alert_scan_ns_op"] = oaNs

	for t := hostmem.Tier(0); t < hostmem.NumTiers; t++ {
		swNs, _ := run(benchSwapIn(t))
		s.Metrics[fmt.Sprintf("swapin_%s_ns_op", t)] = swNs
	}

	csNs, _ := run(benchCheckpointSave)
	s.Metrics["checkpoint_save_ns_op"] = csNs
	rsNs, _ := run(benchCheckpointRestore)
	s.Metrics["checkpoint_restore_ns_op"] = rsNs
	return s
}

// run measures f as best-of-three (minimum ns/op): the minimum is the
// least noisy estimator of the true cost on a shared machine, and the
// gated speedup ratios need stable numerators and denominators.
func run(f func(b *testing.B)) (nsPerOp, allocsPerOp float64) {
	best := -1.0
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(f)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best < 0 || ns < best {
			best = ns
		}
		allocsPerOp = float64(r.AllocsPerOp()) // deterministic across runs
	}
	return best, allocsPerOp
}

func benchEPTRange(pages uint64) func(b *testing.B) {
	return func(b *testing.B) {
		t := ept.New(1 << 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := t.MapRange(0, pages); err != nil {
				b.Fatal(err)
			}
			if _, err := t.UnmapRange(0, pages, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEPTPerFrame(pages uint64) func(b *testing.B) {
	return func(b *testing.B) {
		t := ept.New(1 << 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := mem.PFN(0); p < mem.PFN(pages); p++ {
				if _, err := t.MapBase(p); err != nil {
					b.Fatal(err)
				}
			}
			for p := mem.PFN(0); p < mem.PFN(pages); p++ {
				if _, err := t.UnmapBase(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchSchedulerSteady is the zero-alloc pin: one self-rescheduling timer,
// one Step per iteration, arena-recycled records.
func benchSchedulerSteady(b *testing.B) {
	s := sim.NewScheduler()
	var tick func()
	tick = func() { s.After(sim.Millisecond, "tick", tick) }
	s.After(sim.Millisecond, "tick", tick)
	for i := 0; i < 64; i++ { // warm the free list
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func benchSchedulerCancelHeavy(b *testing.B) {
	s := sim.NewScheduler()
	noop := func() {}
	for i := 0; i < 4096; i++ {
		s.After(sim.Duration(i+1)*sim.Second, "standing", noop)
	}
	handles := make([]sim.Handle, 64)
	// Warm the free list so the measured loop recycles records.
	for i := range handles {
		handles[i] = s.After(sim.Duration(i+1)*sim.Millisecond, "victim", noop)
	}
	for _, h := range handles {
		s.Cancel(h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range handles {
			handles[j] = s.After(sim.Duration(j+1)*sim.Millisecond, "victim", noop)
		}
		for _, h := range handles {
			s.Cancel(h)
		}
	}
}

func benchLLFreeGetPut(b *testing.B) {
	a, err := llfree.New(llfree.Config{Frames: 64 * 512})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Get(0, 0, mem.Movable)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Put(0, f.PFN, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSwapIn measures one evict-and-fault-back cycle through a hostmem
// backend: a full pool, a neighbor's growth forcing an eviction, the
// neighbor releasing, and the victim draining its debt back in. The
// number is pure bookkeeping cost (entry updates, charge deltas, trace
// counters) — simulated IO time is charged by the vmm, not here.
func benchSwapIn(t hostmem.Tier) func(b *testing.B) {
	return func(b *testing.B) {
		const capacity int64 = 64 << 20
		const chunk int64 = 8 << 20
		p := hostmem.NewPool(uint64(capacity))
		p.SetDefaultTier(t)
		if _, err := p.Adjust("a", capacity); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Adjust("b", chunk); err != nil { // evicts a's chunk
				b.Fatal(err)
			}
			if _, err := p.Adjust("b", -chunk); err != nil {
				b.Fatal(err)
			}
			if _, err := p.SwapIn("a", uint64(capacity)); err != nil { // full drain
				b.Fatal(err)
			}
		}
	}
}

// benchClusterEpoch measures one bounded-lag fleet epoch in steady
// state: two finite hosts with three resident VMs, per-host brokers
// scanning the shared allocators every period, and the coordinator's
// barrier pass (migration settlement, placement sampling, bill
// integration) at every step. Workers is pinned to 1 so the number is a
// per-epoch cost, not a goroutine-scheduling artifact.
func benchClusterEpoch(b *testing.B) {
	cl := cluster.New(cluster.Config{Hosts: 2, HostBytes: 8 * mem.GiB, Workers: 1, Seed: 42})
	for i := 0; i < 3; i++ {
		vm, _, err := cl.Admit(cluster.VMSpec{
			Name:   fmt.Sprintf("vm%d", i),
			Memory: 2*mem.GiB + 512*mem.MiB,
			CPUs:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vm.Guest.AllocAnon(0, 512*mem.MiB); err != nil {
			b.Fatal(err)
		}
	}
	// Let the brokers settle before measuring.
	if err := cl.RunFor(8*sim.Second, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.RunFor(sim.Second, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObsRollup is the observability zero-alloc pin: one Observe
// rolling a sample through a host series into its fleet parent, steady
// state (both rings warm). Mirrors internal/obs BenchmarkObsRollup;
// obs_rollup_allocs_op is gated at an exact match (zero).
func benchObsRollup(b *testing.B) {
	p := obs.NewPipeline(obs.Config{Resolution: sim.Second, Window: 120})
	fleet := p.Gauge("fleet/rss_bytes", nil)
	sr := p.Gauge("host0/rss_bytes", fleet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Observe(sim.Time(i)*sim.Time(sim.Millisecond), float64(i))
	}
}

// benchObsAlertScan measures a full alert-rule sweep at fleet scale:
// 128 hosts, each with a burn-rate and a thrash rule, plus one cascade
// rule, over rings carrying below-threshold background traffic.
func benchObsAlertScan(b *testing.B) {
	p := obs.NewPipeline(obs.Config{Resolution: sim.Second, Window: 120})
	at := func(sec int64) sim.Time { return sim.Time(sec * int64(sim.Second)) }
	for h := 0; h < 128; h++ {
		slo := p.Counter(fmt.Sprintf("host%d/slo_violations", h), nil)
		in := p.Counter(fmt.Sprintf("host%d/swap_in_bytes", h), nil)
		out := p.Counter(fmt.Sprintf("host%d/swap_out_bytes", h), nil)
		host := fmt.Sprintf("host%d", h)
		p.AddBurnRate(&obs.BurnRateRule{Series: slo, Host: host, Budget: 1, FastN: 5, SlowN: 60, FastBurn: 14, SlowBurn: 6})
		p.AddThrash(&obs.ThrashRule{In: in, Out: out, Host: host, MinBytes: 1 << 20, Hold: 3})
		for sec := int64(0); sec < 120; sec++ {
			slo.Observe(at(sec), 1)
			out.Observe(at(sec), 1<<19)
		}
	}
	p.AddCascade(&obs.CascadeRule{Count: 8, WindowN: 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Scan(at(119))
	}
}

// checkpointScenario is the spec scenario behind the checkpoint
// benchmarks: a brokered two-VM host with spec-driven demand, stepped
// two virtual seconds in so the captured state is warm (armed events,
// sampled series, populated regions).
func checkpointScenario() *spec.Scenario {
	wl := func(period sim.Duration, lo, hi uint64) spec.WorkloadSpec {
		return spec.WorkloadSpec{
			TickPeriod: period,
			DemandMin:  lo, DemandMax: hi,
			CacheBytes: 8 * mem.MiB,
		}
	}
	return &spec.Scenario{
		Version:    spec.FormatVersion,
		Name:       "benchsnap",
		Seed:       42,
		HostMemory: 8 * mem.GiB,
		Duration:   10 * sim.Second,
		Broker:     &spec.BrokerSpec{Policy: "watermark", Period: sim.Second},
		VMs: []spec.VMSpec{
			{Name: "ha0", Mechanism: "HyperAlloc", MemoryMin: 2*mem.GiB + 512*mem.MiB,
				MemoryMax: 3 * mem.GiB, CPUs: 4, Priority: 2,
				Workload: wl(100*sim.Millisecond, 256*mem.MiB, 768*mem.MiB)},
			{Name: "vmem0", Mechanism: "virtio-mem", MemoryMin: 2*mem.GiB + 512*mem.MiB,
				MemoryMax: 3 * mem.GiB, CPUs: 2, Priority: 1,
				Workload: wl(150*sim.Millisecond, 256*mem.MiB, 640*mem.MiB)},
		},
	}
}

func warmCheckpointSim(b *testing.B) *spec.Sim {
	s, err := spec.Build(checkpointScenario(), spec.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	s.StepUntil(sim.Time(2 * sim.Second))
	return s
}

// benchCheckpointSave measures Capture plus stable-key serialization —
// the cost a mid-run checkpoint adds to a simulation.
func benchCheckpointSave(b *testing.B) {
	s := warmCheckpointSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := s.Capture()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cp.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCheckpointRestore measures a full restore: deterministic rebuild
// from the embedded scenario, state overwrite across every layer, event
// re-arming, and the closing audit pass.
func benchCheckpointRestore(b *testing.B) {
	s := warmCheckpointSim(b)
	cp, err := s.Capture()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Restore(cp, spec.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchChargeRange(b *testing.B) {
	m := costmodel.Default()
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += m.ChargeRange(512, costmodel.OpFaultBase)
	}
	_ = sink
}

var benchFileRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestSnapshot loads the highest-numbered BENCH_<n>.json in dir,
// excluding the file being written this run.
func latestSnapshot(dir, exclude string) (*Snapshot, string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	type cand struct {
		n    int
		name string
	}
	var cands []cand
	for _, e := range entries {
		m := benchFileRe.FindStringSubmatch(e.Name())
		if m == nil || e.Name() == filepath.Base(exclude) {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		cands = append(cands, cand{n, e.Name()})
	}
	if len(cands) == 0 {
		return nil, ""
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
	name := cands[0].name
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		log.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		log.Fatalf("benchsnap: %s: %v", name, err)
	}
	return &s, name
}

// compareSnapshots applies the gates: allocs/op keys exactly, other gate
// keys (speedups) within 10%, and — under strict — absolute ns/op
// within 10%.
func compareSnapshots(prev, cur *Snapshot, strict bool) []string {
	var errs []string
	for k, old := range prev.Gates {
		now, ok := cur.Gates[k]
		if !ok {
			errs = append(errs, fmt.Sprintf("gate %s missing from current run", k))
			continue
		}
		if isAllocsKey(k) {
			if now != old {
				errs = append(errs, fmt.Sprintf("%s: %v allocs/op, snapshot has %v (must match exactly)", k, now, old))
			}
			continue
		}
		if now < old*0.9 {
			errs = append(errs, fmt.Sprintf("%s: %.2f, snapshot has %.2f (>10%% regression)", k, now, old))
		}
	}
	if !strict {
		return errs
	}
	for k, old := range prev.Metrics {
		now, ok := cur.Metrics[k]
		if ok && isNsKey(k) && now > old*1.1 {
			errs = append(errs, fmt.Sprintf("%s: %.1f ns/op, snapshot has %.1f (>10%% regression)", k, now, old))
		}
	}
	return errs
}

func isAllocsKey(k string) bool { return len(k) > 10 && k[len(k)-10:] == "_allocs_op" }
func isNsKey(k string) bool     { return len(k) > 6 && k[len(k)-6:] == "_ns_op" }
