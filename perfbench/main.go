// Command perfbench is the simulator's end-to-end benchmark. It runs one
// scenario workload (fig4, overcommit, cascade or checkpoint) repeatedly
// for a fixed host-time budget, checks every simulated result, and prints
// the host cost a user of the simulator waits for: wall seconds per
// scenario iteration, set-up seconds, Go heap bytes allocated, and the
// process's peak RSS. With -trace 1 it instead reports per-layer numbers:
// CPU-profile layer shares, self-time shares of the spans it records
// around its own calls into the simulator, and layer counts.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fig4 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Paths relative to the repository root: outDir holds the traced run's
// Chrome trace and the checkpoint workload's scratch file; goldenPath
// pins the reference seed's digests.
const (
	outDir     = ".bench_build"
	goldenPath = "perfbench/golden.json"
)

func main() {
	wlName := flag.String("workload", "", "workload: fig4, overcommit, cascade or checkpoint")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*wlName, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// iteration is what one scenario iteration measured.
type iteration struct {
	setup  time.Duration // constructing systems, VMs and specs
	wall   time.Duration // the timed phase
	alloc  uint64        // heap bytes allocated in the timed phase
	digest string        // hash of the simulated outputs
	counts map[string]float64
}

// scenario is one benchmark workload.
type scenario struct {
	name string
	// seeds is how many distinct input seeds one run rotates through;
	// every later iteration on a seed must reproduce its first digest.
	seeds int
	// iter runs one iteration on input seed; rep counts the earlier
	// iterations on that input. Its digest is what golden.json pins for
	// refSeed. An outputError means the iteration ran to completion but
	// its outputs failed a check; any other error means it did not run.
	iter func(b *bench, seed uint64, rep int) (iteration, error)
}

// refSeed is the input seed whose digests golden.json pins. Every run
// executes it once, untimed, before measuring: it warms the heap and
// checks the simulator still produces the pinned results.
const refSeed = 1

var scenarios = []scenario{
	{name: "fig4", seeds: 1, iter: fig4Iter},
	{name: "overcommit", seeds: 3, iter: overcommitIter},
	{name: "cascade", seeds: 2, iter: cascadeIter},
	{name: "checkpoint", seeds: 2, iter: checkpointIter},
}

// bench carries per-run state into the workloads.
type bench struct {
	rec *recorder // nil when untraced
	// ckptPath is the checkpoint workload's scratch file.
	ckptPath string
	// refs caches per-seed reference outputs (the checkpoint workload's
	// uninterrupted results).
	refs map[uint64][]byte
}

// outputError marks a failed check on a completed iteration's outputs:
// the run is not correct, but the iteration's timing still counts.
type outputError struct{ error }

func badOutput(format string, args ...any) error {
	return outputError{fmt.Errorf(format, args...)}
}

// span runs fn inside a named span (a no-op recorder when untraced).
func (b *bench) span(name string, fn func() error) error {
	b.rec.begin(name)
	err := fn()
	b.rec.end()
	return err
}

// meter accumulates the timed phase of one iteration: host time and
// heap bytes allocated, excluding set-up and result checks.
type meter struct {
	wall  time.Duration
	alloc uint64
}

func (m *meter) measure(fn func() error) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	t0 := time.Now()
	err := fn()
	m.wall += time.Since(t0)
	runtime.ReadMemStats(&ms)
	m.alloc += ms.TotalAlloc - a0
	return err
}

func findScenario(name string) (scenario, error) {
	var names []string
	for _, w := range scenarios {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return scenario{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func run(name string, seed uint64, budget time.Duration, traced bool) (*result, error) {
	w, err := findScenario(name)
	if err != nil {
		return nil, err
	}
	pinned, err := loadGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		ckptPath: filepath.Join(outDir, fmt.Sprintf("perfbench-%d.ckpt", os.Getpid())),
		refs:     map[uint64][]byte{},
	}
	defer os.Remove(b.ckptPath)

	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", name, seed, budget.Seconds(), traced)
	calib := calibrate()
	fmt.Printf("host.calib_ms %.3f (fixed CPU loop, median of %d; not gated)\n", calib, calibReps)

	var checks, failed int
	check := func(what string, err error) {
		checks++
		if err != nil {
			failed++
			fmt.Printf("FAIL %s: %v\n", what, err)
		}
	}

	// Reference run: untimed warm-up, checked against the pinned digest.
	ref, err := w.iter(b, refSeed, 0)
	if err == nil && pinned[name] != ref.digest {
		err = fmt.Errorf("digest %s, golden.json pins %q", ref.digest, pinned[name])
	}
	check(fmt.Sprintf("%s reference seed %d", name, refSeed), err)

	// Timed iterations rotate through w.seeds inputs derived from seed;
	// each repeat must reproduce its input's first digest. A traced run
	// spends its first half untraced so the tracing overhead shows.
	digests := map[int]string{}
	var plain, tracedIters []iteration
	var prof []byte
	start := time.Now()
	for i := 0; ; i++ {
		if traced && b.rec == nil && time.Since(start) >= budget/2 {
			b.rec = newRecorder()
			if err := startProfile(); err != nil {
				return nil, err
			}
		}
		k := i % w.seeds
		s := seed*uint64(w.seeds) + uint64(k)
		// Start every iteration from a collected heap, so no iteration
		// pays for the previous one's garbage.
		runtime.GC()
		b.rec.beginRun(i)
		cpu0 := procCPU()
		it, err := w.iter(b, s, i/w.seeds)
		cpu := procCPU() - cpu0
		b.rec.end()
		if err == nil {
			if d, ok := digests[k]; !ok {
				digests[k] = it.digest
			} else if d != it.digest {
				err = badOutput("digest %s differs from %s of the first run on this input", it.digest, d)
			}
		}
		check(fmt.Sprintf("%s iteration %d seed %d", name, i, s), err)
		if err == nil || errors.As(err, new(outputError)) {
			// proc_cpu_s is the whole iteration's process CPU time: close
			// to set-up plus wall_s when the host lets the process run.
			fmt.Printf("iter %d seed=%d setup_s=%.4f wall_s=%.4f proc_cpu_s=%.4f alloc_mib=%.1f digest=%.12s\n",
				i, s, it.setup.Seconds(), it.wall.Seconds(), cpu.Seconds(), mib(it.alloc), it.digest)
			if b.rec != nil {
				tracedIters = append(tracedIters, it)
			} else {
				plain = append(plain, it)
			}
		}
		if time.Since(start) >= budget && (!traced || b.rec != nil) {
			break
		}
	}
	if b.rec != nil {
		if prof, err = stopProfile(); err != nil {
			return nil, err
		}
	}
	fmt.Printf("failed_frac %g (%d failed of %d checks)\n", float64(failed)/float64(checks), failed, checks)

	res := &result{Correct: failed == 0, Attempted: checks, Failed: failed, Metrics: map[string]metric{}}
	if len(plain) == 0 || (traced && len(tracedIters) == 0) {
		return nil, errors.New("no iteration ran to completion")
	}
	if !traced {
		if err := endToEnd(res.Metrics, plain); err != nil {
			return nil, err
		}
		return res, nil
	}
	path := filepath.Join(outDir, fmt.Sprintf("perfbench-trace-%s-%d.json", name, seed))
	if err := perLayer(res.Metrics, calib, plain, tracedIters, b.rec, prof, path); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	printTable(res.Metrics)
	return res, nil
}

// endToEnd fills the metrics a user of the simulator sees.
func endToEnd(m map[string]metric, its []iteration) error {
	var wall, setup, alloc []float64
	for _, it := range its {
		wall = append(wall, it.wall.Seconds())
		setup = append(setup, it.setup.Seconds())
		alloc = append(alloc, mib(it.alloc))
	}
	m["wall_s"] = metric{median(wall), "s"}
	m["setup_s"] = metric{median(setup), "s"}
	m["alloc_mib"] = metric{median(alloc), "MiB"}
	rss, err := peakRSSMiB()
	m["peak_rss_mib"] = metric{rss, "MiB"}
	return err
}

// countMetrics are the per-iteration layer counts a traced run reports
// (mean per traced iteration; 0 where a workload has no such layer).
var countMetrics = []struct{ name, unit string }{
	{"broker.ticks", "count"},
	{"broker.resizes", "count"},
	{"hostmem.swap_out_mib", "MiB"},
	{"cluster.admissions", "count"},
	{"cluster.evacuations", "count"},
	{"cluster.migrations", "count"},
	{"obs.alerts", "count"},
	{"spec.checkpoint_mib", "MiB"},
}

// spanMetrics map recorded span names to self-time-share metrics: the
// span's self time over the traced iterations' total time.
var spanMetrics = func() []struct{ metric, span string } {
	out := []struct{ metric, span string }{
		{"hyperalloc.new_vm_share", "hyperalloc.new_vm"},
		{"guest.alloc_anon_share", "guest.alloc_anon"},
		{"cluster.new_share", "cluster.new"},
		{"workload.overcommit_share", "workload.overcommit"},
		{"workload.fleet_cascade_share", "workload.fleet_cascade"},
		{"spec.build_share", "spec.build"},
		{"spec.run_share", "spec.run"},
		{"spec.capture_share", "spec.capture"},
		{"report.encode_share", "report.encode"},
		{"bench.write_share", "bench.write"},
		{"spec.load_share", "spec.load"},
		{"spec.restore_share", "spec.restore"},
		{"bench.iter_self_share", "iter"},
	}
	for _, label := range fig4Labels() {
		out = append(out, struct{ metric, span string }{
			"vmm.resize_share." + candidateMetric(label), "vmm.resize/" + candidateMetric(label),
		})
	}
	return out
}()

// perLayer fills the traced run's metrics and writes the span trace.
func perLayer(m map[string]metric, calib float64, plain, traced []iteration,
	rec *recorder, prof []byte, tracePath string) error {
	m["host.calib_ms"] = metric{calib, "ms"}
	var pw, tw, tms []float64
	for _, it := range plain {
		pw = append(pw, it.wall.Seconds())
	}
	for _, it := range traced {
		tw = append(tw, it.wall.Seconds())
		tms = append(tms, 1000*it.wall.Seconds())
	}
	m["bench.trace_overhead"] = metric{median(tw) / median(pw), "ratio"}
	m["bench.iter_ms_p50"] = metric{median(tms), "ms"}
	m["bench.iter_ms_tail"] = metric{maxOf(tms), "ms"}
	m["bench.traced_iters"] = metric{float64(len(traced)), "count"}

	for _, c := range countMetrics {
		var sum float64
		for _, it := range traced {
			sum += it.counts[c.name]
		}
		m[c.name] = metric{sum / float64(len(traced)), c.unit}
	}

	samples, err := parseProfile(prof)
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	shares, ticks := layerShares(samples)
	m["bench.profile_samples"] = metric{float64(ticks), "count"}
	for _, key := range shareKeys() {
		m[key] = metric{shares[key], "share"}
	}

	self, total := rec.selfTimes()
	for _, sp := range spanMetrics {
		m[sp.metric] = metric{self[sp.span].Seconds() / total.Seconds(), "share"}
	}

	return rec.writeChrome(tracePath, "perfbench")
}

// printTable lists the per-layer metrics, largest first within each unit.
func printTable(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := m[keys[i]], m[keys[j]]
		if a.Unit != b.Unit {
			return a.Unit < b.Unit
		}
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		if v := m[k]; v.Value != 0 {
			fmt.Printf("  %-40s %12.4f %s\n", k, v.Value, v.Unit)
		}
	}
}

// calibReps is how many times calibrate runs its loop.
const calibReps = 5

// calibrate times a fixed CPU-bound integer loop and returns the median
// in milliseconds. It makes host speed visible next to the results; the
// benchmark never normalises or gates on it.
func calibrate() float64 {
	var ms []float64
	for r := 0; r < calibReps; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink = x
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// sink keeps the calibration loop from being optimised away.
var sink uint64

// procCPU returns the process's user plus system CPU time so far.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// loadGolden reads the pinned reference digests (workload → digest).
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pinned, nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// median returns the middle value (mean of the two middle ones).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
