package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"hyperalloc"
	"hyperalloc/internal/broker"
	"hyperalloc/internal/cluster"
	"hyperalloc/internal/ledger"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/obs"
	"hyperalloc/internal/report"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/spec"
	"hyperalloc/internal/workload"
)

// Workload sizes. Each iteration is one whole scenario at these sizes.
const (
	// fig4: the paper's 20 GiB VM, shrunk to 2 GiB with 19 GiB touched.
	fig4Memory  = 20 * mem.GiB
	fig4Shrunk  = 2 * mem.GiB
	fig4Touched = 19 * mem.GiB

	// overcommit: 3×16 GiB VMs on a 36 GiB host, one clang build each.
	overcommitVMs    = 3
	overcommitMemory = 16 * mem.GiB
	overcommitHost   = 36 * mem.GiB
	overcommitUnits  = 200

	// cascade: the obs-smoke fleet at half its host count.
	cascadeHosts      = 64
	cascadeVMsPerHost = 8
	cascadeHostBytes  = 3 * mem.GiB
	cascadeEpochs     = 20

	// checkpoint: the scenario file every cycle builds from.
	checkpointSpec = "specs/demo.json"
)

// checkpointCuts are the simulated times the checkpoint workload cuts
// at, in rotation: between broker ticks and mid-workload.
var checkpointCuts = []sim.Time{
	sim.Time(1500 * sim.Millisecond),
	sim.Time(4*sim.Second + 75*sim.Millisecond),
	sim.Time(7*sim.Second + 250*sim.Millisecond),
}

// digest hashes a result's JSON encoding.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// withDigest sets the iteration's digest of v and returns bad, the
// outcome of the iteration's output checks.
func withDigest(it iteration, v any, bad error) (iteration, error) {
	var err error
	if it.digest, err = digest(v); err != nil {
		return it, err
	}
	return it, bad
}

// candidateMetric turns a Fig. 4 label into a metric-name suffix
// ("virtio-mem+VFIO" → "virtio-mem-vfio").
func candidateMetric(label string) string {
	return strings.ToLower(strings.ReplaceAll(label, "+", "-"))
}

// fig4Row is one candidate's Fig. 4 result: the four virtual durations
// and the rates over the resized amount.
type fig4Row struct {
	Candidate                                     string
	Reclaim, Return, ReclaimUntouched, RetInstall sim.Duration
	Rates                                         [4]float64 // GiB/s, same order
}

// fig4Iter runs the Fig. 4 matrix once: per candidate, build a System
// and a 20 GiB VM (set-up), make 19 GiB present, then reclaim, return,
// reclaim untouched, and return+install, as workload.Inflate does.
func fig4Iter(b *bench, seed uint64, _ int) (iteration, error) {
	var it iteration
	var m meter
	var rows []fig4Row
	var bad error
	for _, c := range workload.Fig4Candidates() {
		label := c.Label()
		var sys *hyperalloc.System
		var vm *hyperalloc.VM
		t0 := time.Now()
		err := b.span("hyperalloc.new_vm", func() error {
			sys = hyperalloc.NewSystem(seed)
			var err error
			vm, err = sys.NewVM(hyperalloc.Options{
				Name: "inflate-0", Candidate: c.Candidate, Memory: fig4Memory, VFIO: c.VFIO,
			})
			return err
		})
		it.setup += time.Since(t0)
		if err != nil {
			return it, fmt.Errorf("%s: %w", label, err)
		}
		row := fig4Row{Candidate: label}
		err = m.measure(func() error {
			return b.span("fig4/"+label, func() error { return fig4Phases(b, sys, vm, label, &row) })
		})
		if err != nil {
			return it, fmt.Errorf("%s: %w", label, err)
		}
		for i, d := range []sim.Duration{row.Reclaim, row.Return, row.ReclaimUntouched, row.RetInstall} {
			rate := float64(fig4Memory-fig4Shrunk) / float64(mem.GiB) / d.Seconds()
			if d <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
				bad = badOutput("%s: phase %d took %v of virtual time", label, i, d)
			}
			row.Rates[i] = rate
		}
		rows = append(rows, row)
	}
	it.wall, it.alloc = m.wall, m.alloc
	return withDigest(it, rows, bad)
}

// fig4Phases runs the four measured phases on a fresh VM.
func fig4Phases(b *bench, sys *hyperalloc.System, vm *hyperalloc.VM, label string, row *fig4Row) error {
	clock := sys.Sched.Clock()
	resize := "vmm.resize/" + candidateMetric(label)
	phase := func(out *sim.Duration, fn func() error) error {
		t0 := clock.Now()
		if err := fn(); err != nil {
			return err
		}
		*out = clock.Now().Sub(t0)
		return nil
	}
	setLimit := func(bytes uint64) func() error {
		return func() error { return b.span(resize, func() error { return vm.SetMemLimit(bytes) }) }
	}
	allocFree := func() error {
		return b.span("guest.alloc_anon", func() error {
			r, err := vm.Guest.AllocAnon(0, fig4Touched)
			if err != nil {
				return err
			}
			r.Free()
			return nil
		})
	}
	// Preparation: make the memory present by writing into it.
	if err := allocFree(); err != nil {
		return fmt.Errorf("prep: %w", err)
	}
	if err := phase(&row.Reclaim, setLimit(fig4Shrunk)); err != nil {
		return fmt.Errorf("reclaim: %w", err)
	}
	if err := phase(&row.Return, setLimit(fig4Memory)); err != nil {
		return fmt.Errorf("return: %w", err)
	}
	if err := phase(&row.ReclaimUntouched, setLimit(fig4Shrunk)); err != nil {
		return fmt.Errorf("reclaim-untouched: %w", err)
	}
	// Return+install: grow, then a single-threaded guest module
	// allocates and writes every frame at the guest's touch rate.
	return phase(&row.RetInstall, func() error {
		if err := setLimit(fig4Memory)(); err != nil {
			return fmt.Errorf("return+install: %w", err)
		}
		vm.Meter.Work(ledger.Guest, sys.Model.TouchCost(fig4Touched))
		if err := allocFree(); err != nil {
			return fmt.Errorf("return+install: %w", err)
		}
		return nil
	})
}

// overcommitArm picks the HyperAlloc candidate and the Watermark policy.
func overcommitArm() (workload.ClangCandidate, broker.Policy, error) {
	var cand workload.ClangCandidate
	var pol broker.Policy
	for _, c := range workload.OvercommitCandidates() {
		if c.Opts.Candidate == hyperalloc.CandidateHyperAlloc {
			cand = c
		}
	}
	for _, p := range workload.OvercommitPolicies() {
		if _, ok := p.(broker.Watermark); ok {
			pol = p
		}
	}
	if cand.Name == "" || pol == nil {
		return cand, pol, fmt.Errorf("overcommit: HyperAlloc/watermark arm not found")
	}
	return cand, pol, nil
}

// overcommitIter runs one workload.Overcommit arm. Overcommit builds its
// host inside the call, so the set-up time is that of building the same
// host, broker and VMs beforehand.
func overcommitIter(b *bench, seed uint64, _ int) (iteration, error) {
	var it iteration
	cand, pol, err := overcommitArm()
	if err != nil {
		return it, err
	}
	t0 := time.Now()
	err = b.span("hyperalloc.new_vm", func() error {
		sys := hyperalloc.NewSystemWithMemory(seed, overcommitHost)
		bk := broker.New(sys.Sched, sys.Pool, broker.Config{Policy: pol, Period: sim.Second})
		for i := 0; i < overcommitVMs; i++ {
			opts := cand.Opts
			opts.Name, opts.Memory, opts.CPUs = fmt.Sprintf("vm%d", i), overcommitMemory, 12
			vm, err := sys.NewVM(opts)
			if err != nil {
				return err
			}
			bk.Attach(vm.VM, 0)
		}
		return nil
	})
	it.setup = time.Since(t0)
	if err != nil {
		return it, err
	}
	cfg := workload.OvercommitConfig{
		VMs: overcommitVMs, Memory: overcommitMemory, HostBytes: overcommitHost,
		Builds: 1, Units: overcommitUnits, Seed: seed, Workers: 1,
	}
	var res workload.OvercommitResult
	var m meter
	err = m.measure(func() error {
		return b.span("workload.overcommit", func() error {
			var err error
			res, err = workload.Overcommit(cand, pol, cfg)
			return err
		})
	})
	it.wall, it.alloc = m.wall, m.alloc
	if err != nil {
		return it, err
	}
	var bad error
	switch {
	case res.CompletionTime <= 0 || res.Ticks == 0:
		bad = badOutput("overcommit: empty run (completion %v, %d broker ticks)", res.CompletionTime, res.Ticks)
	case res.HostPeakBytes > overcommitHost:
		bad = badOutput("overcommit: peak RSS %d above host memory %d", res.HostPeakBytes, uint64(overcommitHost))
	case res.Errors != 0:
		bad = badOutput("overcommit: %d broker actuation errors", res.Errors)
	}
	it.counts = map[string]float64{
		"broker.ticks":         float64(res.Ticks),
		"broker.resizes":       float64(res.Grows + res.Shrinks),
		"hostmem.swap_out_mib": mib(res.SwapOutBytes),
	}
	return withDigest(it, res, bad)
}

// cascadeAlert is one alert kind's count, for a sorted digest.
type cascadeAlert struct {
	Kind  string
	Count int
}

// cascadeIter runs workload.FleetCascade with an obs pipeline attached.
// The set-up time is that of building the same cluster beforehand.
func cascadeIter(b *bench, seed uint64, _ int) (iteration, error) {
	var it iteration
	t0 := time.Now()
	_ = b.span("cluster.new", func() error {
		share := uint64(cascadeHostBytes) / cascadeVMsPerHost
		cluster.New(cluster.Config{
			Hosts: cascadeHosts, HostBytes: cascadeHostBytes, Lag: sim.Second, Workers: 1,
			Scorer: cluster.AllocatorAware{}, Policy: broker.StaticSplit{},
			EvacuateBelow: cascadeHostBytes / 16, EvacuateHold: 2, SLOSwapBytes: share / 32,
			Seed: seed, Obs: obs.NewPipeline(obs.Config{}),
		})
		return nil
	})
	it.setup = time.Since(t0)

	pipe := obs.NewPipeline(obs.Config{})
	cfg := workload.CascadeConfig{
		Hosts: cascadeHosts, VMsPerHost: cascadeVMsPerHost, HostBytes: cascadeHostBytes,
		Epochs: cascadeEpochs, Seed: seed, Workers: 1, Obs: pipe,
	}
	var res workload.CascadeResult
	var m meter
	err := m.measure(func() error {
		return b.span("workload.fleet_cascade", func() error {
			var err error
			res, err = workload.FleetCascade(cfg)
			return err
		})
	})
	it.wall, it.alloc = m.wall, m.alloc
	if err != nil {
		return it, err
	}
	var alerts []cascadeAlert
	total := 0
	for kind, n := range pipe.AlertCounts() {
		alerts = append(alerts, cascadeAlert{kind, n})
		total += n
	}
	sort.Slice(alerts, func(i, j int) bool { return alerts[i].Kind < alerts[j].Kind })
	var bad error
	switch want := uint64(cascadeHosts * cascadeVMsPerHost); {
	case res.Admissions != want:
		bad = badOutput("cascade: %d admissions, want %d", res.Admissions, want)
	case res.Evacuations == 0 || total == 0:
		bad = badOutput("cascade: no cascade (%d evacuations, %d alerts)", res.Evacuations, total)
	}
	it.counts = map[string]float64{
		"cluster.admissions":  float64(res.Admissions),
		"cluster.evacuations": float64(res.Evacuations),
		"cluster.migrations":  float64(res.Migrations),
		"obs.alerts":          float64(total),
	}
	return withDigest(it, struct {
		Result workload.CascadeResult
		Alerts []cascadeAlert
	}{res, alerts}, bad)
}

// checkpointIter runs one checkpoint/restore cycle of specs/demo.json:
// build (set-up), step to the cut, capture, encode, write, load,
// restore, and run to the end. The restored result must be
// byte-identical to the uninterrupted run's, which is computed once per
// input seed, untimed, and is what the digest pins.
func checkpointIter(b *bench, seed uint64, rep int) (iteration, error) {
	var it iteration
	cut := checkpointCuts[rep%len(checkpointCuts)]
	var sc *spec.Scenario
	var s *spec.Sim
	t0 := time.Now()
	err := b.span("spec.build", func() error {
		var err error
		if sc, err = spec.Load(checkpointSpec); err != nil {
			return err
		}
		sc.Seed = seed
		s, err = spec.Build(sc, spec.BuildOptions{})
		return err
	})
	it.setup = time.Since(t0)
	if err != nil {
		return it, err
	}
	want, ok := b.refs[seed]
	if !ok {
		ref, err := spec.Build(sc, spec.BuildOptions{})
		if err != nil {
			return it, err
		}
		ref.Run()
		if want, err = report.JSONBytes(ref.Result()); err != nil {
			return it, err
		}
		b.refs[seed] = want
	}

	var got []byte
	var size int
	var m meter
	err = m.measure(func() error {
		b.rec.begin("spec.run")
		s.StepUntil(cut)
		b.rec.end()
		var cp *spec.Checkpoint
		if err := b.span("spec.capture", func() (err error) { cp, err = s.Capture(); return }); err != nil {
			return err
		}
		var data []byte
		if err := b.span("report.encode", func() (err error) { data, err = cp.Bytes(); return }); err != nil {
			return err
		}
		size = len(data)
		if err := b.span("bench.write", func() error { return os.WriteFile(b.ckptPath, data, 0o644) }); err != nil {
			return err
		}
		if err := b.span("spec.load", func() (err error) { cp, err = spec.LoadCheckpoint(b.ckptPath); return }); err != nil {
			return err
		}
		var r *spec.Sim
		if err := b.span("spec.restore", func() (err error) { r, err = spec.Restore(cp, spec.BuildOptions{}); return }); err != nil {
			return err
		}
		b.rec.begin("spec.run")
		r.Run()
		b.rec.end()
		return b.span("report.encode", func() (err error) { got, err = report.JSONBytes(r.Result()); return })
	})
	it.wall, it.alloc = m.wall, m.alloc
	if err != nil {
		return it, err
	}
	var bad error
	if !bytes.Equal(got, want) {
		bad = badOutput("checkpoint: restore at %v diverged from the uninterrupted run (%d vs %d bytes)",
			cut, len(got), len(want))
	}
	var res spec.Result
	if err := json.Unmarshal(want, &res); err != nil {
		return it, err
	}
	it.counts = map[string]float64{
		"spec.checkpoint_mib":  mib(uint64(size)),
		"hostmem.swap_out_mib": mib(res.SwapOut),
	}
	if res.Broker != nil {
		it.counts["broker.ticks"] = float64(res.Broker.Ticks)
		it.counts["broker.resizes"] = float64(res.Broker.Grows + res.Broker.Shrinks)
	}
	sum := sha256.Sum256(want)
	it.digest = hex.EncodeToString(sum[:])
	return it, bad
}

// fig4Labels lists the Fig. 4 candidate labels.
func fig4Labels() []string {
	var out []string
	for _, c := range workload.Fig4Candidates() {
		out = append(out, c.Label())
	}
	return out
}
