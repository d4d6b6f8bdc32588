// Command cluster runs the fleet-scale experiment matrix: N finite
// hosts under the cluster scheduler, a staggered-admission diurnal
// workload with flash crowds, and three scenarios (diurnal packing,
// night consolidation, rolling drain) each run with the naive-RSS
// scheduler signal and with the allocator-aware signal read from the
// guests' shared LLFree allocators. The headline is the host bill:
// packing against true free-page state powers on fewer machines and
// puts fewer bytes on the migration wire than packing against stale
// resident-set sizes.
//
// Usage:
//
//	cluster [-hosts N] [-host-gib GIB] [-vms N] [-vm-gib GIB]
//	        [-day SEC] [-run SEC] [-lag-ms MS] [-seed S]
//	        [-parallel N] [-json FILE] [-audit] [-trace FILE]
//	        [-trace-summary] [-trace-sample F] [-backend nvme|zswap|far]
//	        [-report PREFIX] [-cascade] [-vms-per-host N]
//	        [-epochs N] [-surge-at N]
//
// -backend selects the hostmem tier that absorbs every host's evictions
// (default nvme, the pre-tier swap device).
//
// -report attaches the observability pipeline to the first arm and
// writes PREFIX.prom (a Prometheus text snapshot) and PREFIX.html (a
// self-contained dashboard, no external assets) after the run.
// Observing never changes results or traces. -trace-sample F
// head-samples trace tracks deterministically by hash of (seed, track
// name); 0 or 1 keeps everything.
//
// -cascade switches to the cascading-evacuation scenario: a fleet
// loaded to ~50%, then surged to 110% of aggregate capacity so
// evacuations chain across hosts — the stress scenario the obs alert
// rules (SLO burn rate, swap thrash, evacuation cascades, migration
// stalls) are demonstrated against. `make obs-smoke` runs a 128-host
// cascade with -report and validates both snapshots in CI.
//
// The six arms fan across -parallel workers (default: all CPUs); all
// output is byte-identical to -parallel 1, and so is each arm's
// internal host-group advancement.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hyperalloc/internal/cmdutil"
	"hyperalloc/internal/hostmem"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/obs"
	"hyperalloc/internal/profiling"
	"hyperalloc/internal/report"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/workload"
)

// output is the -json schema. Fields marshal in declaration order; the
// bytes are stable for a fixed seed and scenario (see report.JSONBytes).
type output struct {
	Seed    uint64    `json:"seed"`
	Hosts   int       `json:"hosts"`
	HostGiB float64   `json:"host_gib"`
	VMs     int       `json:"vms"`
	VMGiB   float64   `json:"vm_gib"`
	DaySec  float64   `json:"day_seconds"`
	RunSec  float64   `json:"run_seconds"`
	LagMs   float64   `json:"lag_ms"`
	Arms    []armJSON `json:"arms"`
}

type armJSON struct {
	Arm             string  `json:"arm"`
	Scenario        string  `json:"scenario"`
	Scorer          string  `json:"scorer"`
	HostGiBMin      float64 `json:"host_gib_min"`
	RSSGiBMin       float64 `json:"rss_gib_min"`
	PeakActiveHosts int     `json:"peak_active_hosts"`
	Admissions      uint64  `json:"admissions"`
	Migrations      uint64  `json:"migrations"`
	Evacuations     uint64  `json:"evacuations"`
	DrainMoves      uint64  `json:"drain_moves"`
	MigratedGiB     float64 `json:"migrated_gib"`
	MigratedBytes   uint64  `json:"migrated_bytes"`
	SkippedGiB      float64 `json:"skipped_gib"`
	BlackoutMs      float64 `json:"blackout_ms"`
	SLOViolations   uint64  `json:"slo_violations"`
	SwapViolations  uint64  `json:"swap_violations"`
	Forced          uint64  `json:"forced_placements"`
}

func main() {
	hosts := flag.Int("hosts", 0, "fleet size (0 = default 4)")
	hostGiB := flag.Float64("host-gib", 0, "per-host capacity in GiB (0 = default 9)")
	vms := flag.Int("vms", 0, "VM admissions (0 = default 8)")
	vmGiB := flag.Float64("vm-gib", 0, "per-VM memory in GiB (0 = default 3)")
	daySec := flag.Float64("day", 0, "diurnal period in simulated seconds (0 = default 60)")
	runSec := flag.Float64("run", 0, "experiment length in simulated seconds (0 = default 2 days)")
	lagMs := flag.Float64("lag-ms", 0, "bounded-lag epoch in milliseconds (0 = default 1000)")
	common := cmdutil.Flags("first arm", "optional JSON output path for the result matrix")
	auditRun := flag.Bool("audit", false, "run the N-pool conservation auditor every simulated second and every migration round")
	traceSample := flag.Float64("trace-sample", 0, "head-sample trace tracks: keep this fraction, hashed on (seed, track name); 0 or 1 = keep all")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	backendName := flag.String("backend", "nvme", "swap tier for host evictions: nvme, zswap, or far")
	reportPrefix := flag.String("report", "", "attach the obs pipeline and write PREFIX.prom and PREFIX.html after the run")
	cascade := flag.Bool("cascade", false, "run the cascading-evacuation scenario instead of the scheduling matrix")
	vmsPerHost := flag.Int("vms-per-host", 0, "cascade: VMs per host (0 = default 8)")
	epochs := flag.Int("epochs", 0, "cascade: run length in epochs (0 = default 48)")
	surgeAt := flag.Int("surge-at", 0, "cascade: epoch the demand surge lands (0 = default 12)")
	flag.Parse()

	seed, parallel, jsonPath := &common.Seed, &common.Parallel, &common.JSON
	backend, err := hostmem.ParseTier(*backendName)
	if err != nil {
		log.Fatal(err)
	}

	stopProfiles := profiling.Options{
		CPU: *cpuProfile, Mem: *memProfile,
		Block: *blockProfile, Mutex: *mutexProfile,
	}.Start()
	defer stopProfiles()

	tr := common.Tracer()
	if tr != nil && *traceSample > 0 && *traceSample < 1 {
		tr.SetTrackFilter(obs.Sampler{Seed: *seed, Keep: *traceSample}.KeepTrack)
	}
	var pipe *obs.Pipeline
	if *reportPrefix != "" {
		pipe = obs.NewPipeline(obs.Config{})
	}

	if *cascade {
		runCascade(cascadeFlags{
			hosts: *hosts, vmsPerHost: *vmsPerHost,
			hostGiB: *hostGiB, vmGiB: *vmGiB,
			lagMs: *lagMs, epochs: *epochs, surgeAt: *surgeAt,
			seed: *seed, parallel: *parallel, audit: *auditRun,
			jsonPath: *jsonPath, reportPrefix: *reportPrefix,
			traceOut: common.TraceOut, traceSummary: common.TraceSummary,
		}, tr, pipe)
		return
	}

	cfg := workload.FleetConfig{
		Hosts:     *hosts,
		HostBytes: uint64(*hostGiB * float64(mem.GiB)),
		VMs:       *vms,
		VMMemory:  uint64(*vmGiB * float64(mem.GiB)),
		Day:       sim.Duration(*daySec * float64(sim.Second)),
		RunFor:    sim.Duration(*runSec * float64(sim.Second)),
		Lag:       sim.Duration(*lagMs * float64(sim.Millisecond)),
		Backend:   backend,
		Seed:      *seed,
		Workers:   *parallel,
		Audit:     *auditRun,
		Trace:     tr,
		Obs:       pipe,
	}
	arms := workload.FleetArms()
	results, err := workload.FleetAll(arms, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer common.EmitTrace(tr)
	runFor := sim.Duration(pickF(*runSec, pickF(*daySec, 60)*2) * float64(sim.Second))
	writeObsReport(pipe, sim.Time(runFor), *reportPrefix,
		fmt.Sprintf("fleet %s", arms[0].Name))

	out := &output{
		Seed:    *seed,
		Hosts:   pick(*hosts, 4),
		HostGiB: pickF(*hostGiB, 9),
		VMs:     pick(*vms, 8),
		VMGiB:   pickF(*vmGiB, 3),
		DaySec:  pickF(*daySec, 60),
		RunSec:  pickF(*runSec, pickF(*daySec, 60)*2),
		LagMs:   pickF(*lagMs, 1000),
	}
	naiveBill := map[string]float64{}
	for _, r := range results {
		if r.Scorer == "naive-rss" {
			naiveBill[r.Scenario] = r.HostGiBMin
		}
	}
	var rows [][]string
	for _, r := range results {
		saving := "-"
		if base := naiveBill[r.Scenario]; base > 0 && r.Scorer != "naive-rss" {
			saving = fmt.Sprintf("%.0f%%", 100*(1-r.HostGiBMin/base))
		}
		rows = append(rows, []string{
			r.Arm,
			fmt.Sprintf("%.1f", r.HostGiBMin),
			saving,
			fmt.Sprintf("%d", r.PeakActiveHosts),
			fmt.Sprintf("%d", r.Migrations),
			mem.HumanBytes(r.MigratedBytes),
			mem.HumanBytes(r.SkippedBytes),
			fmt.Sprintf("%.0f ms", float64(r.Blackout)/float64(sim.Millisecond)),
			fmt.Sprintf("%d", r.SLOViolations),
		})
		out.Arms = append(out.Arms, armJSON{
			Arm:             r.Arm,
			Scenario:        r.Scenario,
			Scorer:          r.Scorer,
			HostGiBMin:      r.HostGiBMin,
			RSSGiBMin:       r.RSSGiBMin,
			PeakActiveHosts: r.PeakActiveHosts,
			Admissions:      r.Admissions,
			Migrations:      r.Migrations,
			Evacuations:     r.Evacuations,
			DrainMoves:      r.DrainMoves,
			MigratedGiB:     float64(r.MigratedBytes) / (1 << 30),
			MigratedBytes:   r.MigratedBytes,
			SkippedGiB:      float64(r.SkippedBytes) / (1 << 30),
			BlackoutMs:      float64(r.Blackout) / float64(sim.Millisecond),
			SLOViolations:   r.SLOViolations,
			SwapViolations:  r.SwapViolations,
			Forced:          r.ForcedPlacements,
		})
	}
	report.Table(os.Stdout,
		fmt.Sprintf("Fleet scheduling — %d hosts x %.0f GiB, %d VMs, %.0f s day",
			out.Hosts, out.HostGiB, out.VMs, out.DaySec),
		[]string{"arm", "host-GiB-min", "vs naive", "peak hosts", "migrations", "moved", "skipped", "blackout", "SLO"},
		rows)
	fmt.Println("\nthe naive scheduler packs against resident-set sizes that freed guest")
	fmt.Println("  memory never shrinks; the allocator-aware scheduler reads the shared")
	fmt.Println("  LLFree state and packs against what the guests actually use — fewer")
	fmt.Println("  hosts powered on, and its migrations skip the dead pages entirely.")

	if *jsonPath != "" {
		if err := report.WriteJSON(*jsonPath, out); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *jsonPath)
	}
}

func pick(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func pickF(v, def float64) float64 {
	if v != 0 {
		return v
	}
	return def
}
