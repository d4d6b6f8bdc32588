// Command hyperallocbench regenerates every table and figure of the
// HyperAlloc paper's evaluation (Sec. 5) plus the repository's ablation
// and runner-throughput checks. Each one is an -exp value; the flags in
// brackets are the ones that experiment reads:
//
//	hyperallocbench -exp table1                          # Table 1: candidate properties
//	hyperallocbench -exp fig4  [-reps] [-mem] [-audit]   # Fig. 4: de/inflation speed (paper: -reps 10)
//	hyperallocbench -exp fig5  [-threads]                # Fig. 5 + Table 2: STREAM under resizing
//	hyperallocbench -exp fig6  [-threads]                # Fig. 6 + Table 2: FTQ under resizing
//	hyperallocbench -exp fig7  [-reps] [-units] [-extra] # Fig. 7: clang, auto reclamation (paper: -reps 6)
//	hyperallocbench -exp fig8  [-units]                  # Fig. 8: in-depth clang with clean/drop
//	hyperallocbench -exp fig9  [-reps] [-units]          # Fig. 9: the DMA-safe pair under VFIO
//	hyperallocbench -exp fig10 [-reps]                   # Fig. 10: -reps consecutive blender runs
//	hyperallocbench -exp fig11 [-units] [-builds] [-gap] [-offset]  # Fig. 11: three VMs
//	hyperallocbench -exp ablation                        # A1-A4: reservation policy, tree size, install, scan
//	hyperallocbench -exp speedup [-reps] [-mem] [-audit] # runner throughput on the fig4 matrix
//	hyperallocbench -exp quick [-mem] [-audit]           # table1, fig4 at one rep, ablation
//
// Every experiment reads -seed, -trace, -trace-summary, -cpuprofile and
// -memprofile. Multi-cell experiments fan across -parallel workers
// (default: all CPUs) with output byte-identical to -parallel 1; the
// tracer records the first cell. -csv DIR dumps fig4.csv, fig5-<T>T.csv,
// fig6-<T>T.csv, fig8.csv, fig10.csv and fig11-<candidate>-<scenario>.csv.
// -json FILE writes the fig4/speedup headline metrics, including their
// wall-clock runs/s. Paper-scale defaults take many minutes; shrink with
// -reps 1, -mem 4, -threads 1, -units 120, -builds 1 and -gap 3.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"hyperalloc"
	"hyperalloc/internal/cmdutil"
	"hyperalloc/internal/mem"
	"hyperalloc/internal/metrics"
	"hyperalloc/internal/profiling"
	"hyperalloc/internal/report"
	"hyperalloc/internal/runner"
	"hyperalloc/internal/sim"
	"hyperalloc/internal/trace"
	"hyperalloc/internal/workload"
)

// output aggregates the headline metrics of the experiments that ran, for
// the optional -json dump.
type output struct {
	Seed    uint64       `json:"seed"`
	Workers int          `json:"workers"` // 0 = all CPUs
	Fig4    *fig4JSON    `json:"fig4,omitempty"`
	Speedup *speedupJSON `json:"speedup,omitempty"`
}

type fig4JSON struct {
	Reps       int            `json:"reps"`
	Candidates []fig4RateJSON `json:"candidates"`
	Runs       int            `json:"runs"`
	WallSec    float64        `json:"wall_seconds"`
	RunsPerSec float64        `json:"runs_per_second"`
}

// fig4RateJSON holds one candidate's mean virtual-time rates in GiB/s.
type fig4RateJSON struct {
	Candidate        string  `json:"candidate"`
	ReclaimGiBs      float64 `json:"reclaim_gibs"`
	ReclaimUntouched float64 `json:"reclaim_untouched_gibs"`
	ReturnGiBs       float64 `json:"return_gibs"`
	ReturnInstall    float64 `json:"return_install_gibs"`
}

type speedupJSON struct {
	Reps          int     `json:"reps"`
	Runs          int     `json:"runs"`
	Workers       int     `json:"workers"`
	SeqRunsPerSec float64 `json:"sequential_runs_per_second"`
	ParRunsPerSec float64 `json:"parallel_runs_per_second"`
	Speedup       float64 `json:"speedup"`
}

// experiments maps each -exp value to the function that runs it.
var experiments = []struct {
	name string
	run  func(*config)
}{
	{"table1", table1},
	{"fig4", func(c *config) { fig4(c, c.reps) }},
	{"fig5", func(c *config) { perf(c, "5", "stream", "GB/s", workload.Stream, streamPaper) }},
	{"fig6", func(c *config) { perf(c, "6", "ftq", "e6 work", workload.FTQ, ftqPaper) }},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"ablation", ablation},
	{"speedup", speedup},
	{"quick", func(c *config) { table1(c); fig4(c, 1); ablation(c) }},
}

// config is the parsed and validated command line plus the run's sinks.
type config struct {
	*cmdutil.Common
	exp                         string
	reps                        int
	mem                         uint64 // GiB
	threadsFlag                 string
	threads                     []int
	units, builds, gap, offset  int // gap and offset in minutes
	extra, audit                bool
	csv, cpuProfile, memProfile string

	run func(*config) // the -exp experiment
	tr  *trace.Tracer
	w   io.Writer
	out *output
}

// usageError names a flag whose value no experiment can run with.
type usageError struct{ flag, reason string }

func (e *usageError) Error() string { return "-" + e.flag + ": " + e.reason }

func main() {
	c, err := parse(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyperallocbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles := profiling.Start(c.cpuProfile, c.memProfile)
	defer stopProfiles()

	c.run(c)
	c.EmitTrace(c.tr)
	if c.JSON != "" {
		if err := report.WriteJSON(c.JSON, c.out); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", c.JSON)
	}
}

// parse registers every flag on the default flag set, parses args and
// validates the values, so a bad flag fails before any simulation runs.
func parse(args []string) (*config, error) {
	c := &config{w: os.Stdout}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	flag.StringVar(&c.exp, "exp", "quick", strings.Join(names, "|"))
	flag.IntVar(&c.reps, "reps", 3, "fig4/speedup reps per candidate (paper: 10), fig7/fig9 builds per candidate (paper: 6), fig10 blender runs")
	flag.Uint64Var(&c.mem, "mem", 20, "fig4/speedup/quick VM size in GiB (above the 2 GiB shrink target)")
	flag.StringVar(&c.threadsFlag, "threads", "1,4,12", "fig5/fig6 comma-separated thread counts")
	flag.IntVar(&c.units, "units", 1800, "fig7/fig8/fig9/fig11 compile units per build")
	flag.IntVar(&c.builds, "builds", 3, "fig11 builds per VM")
	flag.IntVar(&c.gap, "gap", 120, "fig11 gap between a VM's builds (minutes)")
	flag.IntVar(&c.offset, "offset", 40, "fig11 offset between VMs in the offset scenario (minutes)")
	flag.BoolVar(&c.extra, "extra", false, "fig7: add the virtio-balloon parameter sweep (bold rows)")
	flag.BoolVar(&c.audit, "audit", false, "fig4/speedup/quick: run the cross-layer invariant auditor after every measured phase (slow)")
	flag.StringVar(&c.csv, "csv", "", "directory for CSV dumps (fig4, fig5, fig6, fig8, fig10, fig11)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	c.Common = cmdutil.Flags("first matrix cell", "optional JSON output path for the fig4/speedup headline metrics")
	if err := flag.CommandLine.Parse(args); err != nil {
		return nil, err
	}
	for _, e := range experiments {
		if e.name == c.exp {
			c.run = e.run
		}
	}
	if c.run == nil {
		return nil, &usageError{"exp", fmt.Sprintf("unknown experiment %q (valid: %s)", c.exp, strings.Join(names, " "))}
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.tr = c.Tracer()
	c.out = &output{Seed: c.Seed, Workers: c.Parallel}
	return c, nil
}

// validate rejects values the workloads would crash on or silently
// replace with their defaults, and parses -threads.
func (c *config) validate() error {
	switch {
	case c.reps < 1:
		return &usageError{"reps", "must be at least 1"}
	case c.mem <= 2:
		return &usageError{"mem", "must exceed the 2 GiB shrink target"}
	case c.units < 1:
		return &usageError{"units", "must be at least 1"}
	case c.builds < 1:
		return &usageError{"builds", "must be at least 1"}
	case c.gap < 1:
		return &usageError{"gap", "must be at least 1 minute"}
	case c.offset < 0:
		return &usageError{"offset", "must not be negative"}
	}
	for _, t := range strings.Split(c.threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || n < 1 {
			return &usageError{"threads", fmt.Sprintf("entry %q is not a thread count of at least 1", t)}
		}
		c.threads = append(c.threads, n)
	}
	return nil
}

// fan runs n independent simulation cells through the -parallel pool and
// returns the results in cell order, so the tables built from them are
// byte-identical at any worker count. Cell 0 alone gets the tracer: a
// tracer records exactly one simulation.
func fan[T any](c *config, n int, cell func(i int, tr *trace.Tracer) (T, error)) []T {
	out, err := runner.Map(c.Runner(), n, func(i int) (T, error) {
		if i == 0 {
			return cell(i, c.tr)
		}
		return cell(i, nil)
	})
	if err != nil {
		log.Fatalf("%s: %v", c.exp, err)
	}
	return out
}

// writeCSV dumps series to the named file in the -csv directory, if any.
func (c *config) writeCSV(name string, series ...*metrics.Series) {
	if c.csv == "" {
		return
	}
	path := filepath.Join(c.csv, name)
	if err := report.WriteCSV(path, series...); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(c.w, "wrote", path)
}

func table1(c *config) {
	sys := hyperalloc.NewSystem(c.Seed)
	var rows [][]string
	for _, cand := range hyperalloc.Candidates() {
		vm, err := sys.NewVM(hyperalloc.Options{
			Name: "t1-" + string(cand), Candidate: cand, Memory: 4 * mem.GiB,
		})
		if err != nil {
			log.Fatal(err)
		}
		p := vm.Mech.Properties()
		rows = append(rows, []string{
			vm.Mech.Name(),
			mem.HumanBytes(p.Granularity),
			mark(p.ManualLimit), mark(p.AutoMode), mark(p.DMASafe),
		})
	}
	report.Table(c.w, "Table 1 — evaluation candidates and their properties",
		[]string{"name", "granularity", "manual limit", "auto mode", "DMA safety"}, rows)
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// fig4Matrix runs the Fig. 4 candidate × rep matrix and returns the
// results plus wall-clock throughput stats.
func fig4Matrix(c *config, reps, workers int, tr *trace.Tracer) ([]workload.InflateResult, runner.Stats) {
	cfg := workload.InflateConfig{
		Reps: reps, Memory: c.mem * mem.GiB, Touched: (c.mem - 1) * mem.GiB,
		Seed: c.Seed, Workers: workers, Audit: c.audit, Trace: tr,
	}
	start := time.Now()
	results, err := workload.InflateAll(cfg)
	if err != nil {
		log.Fatalf("%s: %v", c.exp, err)
	}
	// reps ≥ 1 (validate), so InflateAll ran exactly cfg.Reps cells per
	// candidate rather than substituting its default for 0.
	return results, runner.Stats{
		Runs:    len(results) * cfg.Reps,
		Workers: runner.Runner{Workers: workers}.Effective(),
		Wall:    time.Since(start),
	}
}

const fig4Paper = `
paper (Sec. 5.3): balloon 0.95 GiB/s reclaim, 2.3 GiB/s return;
  virtio-mem 34 GiB/s shrink (52% slower w/ VFIO), 102 GiB/s grow (21x slower w/ VFIO);
  HyperAlloc 344.8 GiB/s reclaim (6.3x slower w/ VFIO), 4.92 TiB/s untouched,
  229 ns/huge-frame return; return+install ~4 GiB/s for all huge-granular candidates.
`

func fig4(c *config, reps int) {
	results, stats := fig4Matrix(c, reps, c.Parallel, c.tr)
	var rows [][]string
	j := &fig4JSON{
		Reps: reps, Runs: stats.Runs,
		WallSec: stats.Wall.Seconds(), RunsPerSec: stats.RunsPerSec(),
	}
	csv := "candidate,reclaim_gibs,reclaim_untouched_gibs,return_gibs,return_install_gibs\n"
	for _, r := range results {
		rows = append(rows, []string{
			r.Candidate, r.Reclaim.String(), r.ReclaimUntouched.String(),
			r.Return.String(), r.ReturnInstall.String(),
		})
		j.Candidates = append(j.Candidates, fig4RateJSON{
			Candidate:        r.Candidate,
			ReclaimGiBs:      r.Reclaim.Mean,
			ReclaimUntouched: r.ReclaimUntouched.Mean,
			ReturnGiBs:       r.Return.Mean,
			ReturnInstall:    r.ReturnInstall.Mean,
		})
		csv += fmt.Sprintf("%s,%g,%g,%g,%g\n", r.Candidate,
			r.Reclaim.Mean, r.ReclaimUntouched.Mean, r.Return.Mean, r.ReturnInstall.Mean)
	}
	report.Table(c.w, "Fig. 4 — de/inflation speed (virtual-time rates)",
		[]string{"candidate", "reclaim", "reclaim untouched", "return", "return+install"}, rows)
	fmt.Fprintf(c.w, "matrix: %d runs in %.2f s wall — %.1f runs/s (%d workers)\n",
		stats.Runs, stats.Wall.Seconds(), stats.RunsPerSec(), stats.Workers)
	fmt.Fprint(c.w, fig4Paper)
	if c.csv != "" {
		path := filepath.Join(c.csv, "fig4.csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(c.w, "wrote", path)
	}
	c.out.Fig4 = j
}

// speedup measures wall-clock throughput of the Fig. 4 matrix sequentially
// and with the parallel runner, verifying the results match. The tracer
// attaches to the sequential pass.
func speedup(c *config) {
	workers := c.Parallel
	if workers <= 1 {
		workers = 4
	}
	seqRes, seqStats := fig4Matrix(c, c.reps, 1, c.tr)
	parRes, parStats := fig4Matrix(c, c.reps, workers, nil)
	if !reflect.DeepEqual(seqRes, parRes) {
		log.Fatal("speedup: parallel results differ from sequential — determinism violated")
	}
	factor := parStats.RunsPerSec() / seqStats.RunsPerSec()
	fmt.Fprintf(c.w, "Fig. 4 matrix, %d runs (results byte-identical):\n", seqStats.Runs)
	fmt.Fprintf(c.w, "  workers=1:  %6.2f s wall — %6.1f runs/s\n", seqStats.Wall.Seconds(), seqStats.RunsPerSec())
	fmt.Fprintf(c.w, "  workers=%d: %6.2f s wall — %6.1f runs/s\n", parStats.Workers, parStats.Wall.Seconds(), parStats.RunsPerSec())
	fmt.Fprintf(c.w, "  speedup: %.2fx\n", factor)
	c.out.Speedup = &speedupJSON{
		Reps: c.reps, Runs: seqStats.Runs, Workers: parStats.Workers,
		SeqRunsPerSec: seqStats.RunsPerSec(), ParRunsPerSec: parStats.RunsPerSec(),
		Speedup: factor,
	}
}

const streamPaper = `
paper Table 2 STREAM (1/4/12T): baseline 10.3/26.0/69.0; balloon 6.2/10.9/30.9;
  balloon-huge 10.1/25.5/67.8; virtio-mem 10.2/13.1/31.9; +VFIO 10.3/12.6/18.4;
  HyperAlloc 10.3/26.3/70.1; +VFIO 10.3/26.1/70.3
`

const ftqPaper = `
paper Table 2 FTQ (1/4/12T): baseline 9.4/10.2/30.6; balloon 5.9/7.5/24.9;
  balloon-huge 9.5/10.1/30.1; virtio-mem 9.5/8.6/28.7; +VFIO 9.4/8.4/28.3;
  HyperAlloc 9.5/10.2/30.7; +VFIO 9.5/10.2/30.7
`

// perf runs one half of Table 2 (Fig. 5 STREAM or Fig. 6 FTQ): a 20 GiB
// VM shrunk to 2 GiB at 20 s and grown back at 90 s, for every candidate
// × -threads cell.
func perf(c *config, fig, name, unit string,
	fn func(workload.CandidateSpec, workload.PerfConfig) (workload.PerfResult, error), paper string) {
	specs := append([]workload.CandidateSpec{{Candidate: hyperalloc.CandidateBaseline}},
		workload.PerfCandidates()...)
	nt := len(c.threads)
	results := fan(c, len(specs)*nt, func(i int, tr *trace.Tracer) (workload.PerfResult, error) {
		return fn(specs[i/nt], workload.PerfConfig{Threads: c.threads[i%nt], Seed: c.Seed, Trace: tr})
	})
	headers := []string{"candidate"}
	for _, t := range c.threads {
		headers = append(headers, fmt.Sprintf("%dT p1 [%s]", t, unit))
	}
	var rows [][]string
	byThreads := make([][]*metrics.Series, nt)
	for si, spec := range specs {
		row := []string{spec.Label()}
		for ti, t := range c.threads {
			res := results[si*nt+ti]
			row = append(row, fmt.Sprintf("%.1f", res.P1))
			byThreads[ti] = append(byThreads[ti], res.Series)
			if res.ShrinkErr != nil {
				fmt.Fprintf(os.Stderr, "note: %s/%dT partial shrink: %v\n", spec.Label(), t, res.ShrinkErr)
			}
		}
		rows = append(rows, row)
	}
	report.Table(c.w, fmt.Sprintf("Table 2 — %s 1st percentiles", name), headers, rows)
	for ti, t := range c.threads {
		report.ASCIIPlot(c.w,
			fmt.Sprintf("Fig. %s — %s over time, %d threads (shrink @20 s, grow @90 s)", fig, name, t),
			76, byThreads[ti]...)
	}
	for ti, t := range c.threads {
		c.writeCSV(fmt.Sprintf("fig%s-%dT.csv", fig, t), byThreads[ti]...)
	}
	fmt.Fprint(c.w, paper)
}

// clangMatrix runs every (candidate, rep) build of -units compile units
// and returns the per-candidate result slices in candidate order.
func clangMatrix(c *config, cands []workload.ClangCandidate, reps int, indepth bool) [][]workload.ClangResult {
	flat := fan(c, len(cands)*reps, func(i int, tr *trace.Tracer) (workload.ClangResult, error) {
		return workload.Clang(cands[i/reps], workload.ClangConfig{
			Units: c.units, Seed: c.Seed + uint64(i%reps), InDepth: indepth, Trace: tr,
		})
	})
	out := make([][]workload.ClangResult, len(cands))
	for i := range cands {
		out[i] = flat[i*reps : (i+1)*reps]
	}
	return out
}

const fig7Paper = `
paper: auto reclamation reduces the footprint by 24-45%; HyperAlloc lowest,
  then virtio-balloon configurations, then simulated virtio-mem; LLFree-based
  runs incur about half as many EPT faults; o=0 configurations trade runtime
  (+19%) for footprint.
`

func fig7(c *config) {
	cands := workload.ClangCandidates()
	if c.extra {
		cands = append(cands, workload.BalloonSweep()...)
	}
	perCand := clangMatrix(c, cands, c.reps, false)
	var rows [][]string
	for i, cand := range cands {
		var foot, rt, usr, sys []float64
		var faults uint64
		for _, r := range perCand[i] {
			foot = append(foot, r.FootprintGiBMin)
			rt = append(rt, r.BuildTime.Minutes())
			usr = append(usr, r.UserCPU.Minutes())
			sys = append(sys, r.SystemCPU.Seconds())
			faults += r.EPTFaults
		}
		rows = append(rows, []string{
			cand.Name,
			metrics.MeanCI(foot, "GiB·min"),
			metrics.MeanCI(rt, "min"),
			metrics.MeanCI(usr, "min"),
			metrics.MeanCI(sys, "s"),
			fmt.Sprintf("%d", faults/uint64(c.reps)),
		})
		fmt.Fprintf(os.Stderr, "done: %s\n", cand.Name)
	}
	report.Table(c.w, "Fig. 7 — clang compilation with automatic reclamation",
		[]string{"candidate", "footprint", "runtime", "user CPU", "system CPU", "EPT faults"}, rows)
	fmt.Fprint(c.w, fig7Paper)
}

const fig8Paper = `
paper: make clean lets HyperAlloc shrink the VM by 3.8 GiB vs 0.7 GiB for
  virtio-balloon; dropping the entire cache reaches 1.9 GiB vs 8 GiB.
`

func fig8(c *config) {
	pair := []workload.ClangCandidate{
		workload.ClangCandidates()[2], // virtio-balloon default
		workload.ClangCandidates()[4], // HyperAlloc
	}
	perCand := clangMatrix(c, pair, 1, true)
	var rows [][]string
	var all []*metrics.Series
	for i, cand := range pair {
		r := perCand[i][0]
		rows = append(rows, []string{
			cand.Name,
			fmt.Sprintf("%.1f", r.FootprintGiBMin),
			gib(r.FinalRSS), gib(r.FinalRSS - min(r.FinalRSS, r.AfterCleanRSS)),
			gib(r.AfterCleanRSS), gib(r.AfterDropRSS),
		})
		report.ASCIIPlot(c.w,
			fmt.Sprintf("Fig. 8 — %s (build, +200 s make clean, +200 s drop caches)", cand.Name),
			76, r.RSS, r.Huge, r.Small, r.Cache)
		all = append(all, r.RSS, r.Huge, r.Small, r.Cache)
	}
	report.Table(c.w, "Fig. 8 — in-depth summary",
		[]string{"candidate", "footprint [GiB·min]", "RSS end of build", "freed by clean", "after clean", "after drop"}, rows)
	fmt.Fprint(c.w, fig8Paper)
	c.writeCSV("fig8.csv", all...)
}

func fig9(c *config) {
	cands := []workload.ClangCandidate{
		{Name: "virtio-mem+VFIO", Opts: hyperalloc.Options{
			Candidate: hyperalloc.CandidateVirtioMem, AutoReclaim: true, VFIO: true}},
		{Name: "HyperAlloc+VFIO", Opts: hyperalloc.Options{
			Candidate: hyperalloc.CandidateHyperAlloc, AutoReclaim: true, VFIO: true}},
	}
	perCand := clangMatrix(c, cands, c.reps, false)
	var rows [][]string
	var foots []float64
	for i, cand := range cands {
		var foot, rt []float64
		for _, r := range perCand[i] {
			foot = append(foot, r.FootprintGiBMin)
			rt = append(rt, r.BuildTime.Minutes())
		}
		foots = append(foots, metrics.Mean(foot))
		rows = append(rows, []string{cand.Name, metrics.MeanCI(foot, "GiB·min"), metrics.MeanCI(rt, "min")})
	}
	report.Table(c.w, "Fig. 9 — clang compilation with VFIO-based DMA safety",
		[]string{"candidate", "footprint", "runtime"}, rows)
	if foots[1] > 0 {
		fmt.Fprintf(c.w, "\nvirtio-mem+VFIO footprint is %.1f%% higher than HyperAlloc+VFIO (paper: 39.8%%)\n",
			(foots[0]/foots[1]-1)*100)
	}
}

func gib(b uint64) string { return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30)) }

func fig10(c *config) {
	cands := workload.BlenderCandidates()
	results := fan(c, len(cands), func(i int, tr *trace.Tracer) (workload.BlenderResult, error) {
		return workload.Blender(cands[i], workload.BlenderConfig{Runs: c.reps, Seed: c.Seed, Trace: tr})
	})
	var rows [][]string
	var series []*metrics.Series
	var foots []float64
	for _, r := range results {
		idle := make([]string, len(r.IdleRSS))
		for i, b := range r.IdleRSS {
			idle[i] = fmt.Sprintf("%.2f", float64(b)/(1<<30))
		}
		rows = append(rows, []string{
			r.Candidate,
			fmt.Sprintf("%.1f GiB·min", r.FootprintGiBMin),
			strings.Join(idle, " / ") + " GiB",
			gib(r.AfterDropRSS),
		})
		series = append(series, r.RSS)
		foots = append(foots, r.FootprintGiBMin)
	}
	report.Table(c.w, "Fig. 10 — repeated blender runs with auto deflation",
		[]string{"candidate", "footprint", "idle RSS (between runs)", "after cache drop"}, rows)
	report.ASCIIPlot(c.w, "Fig. 10 — RSS over time", 76, series...)
	if len(foots) == 2 && foots[0] > 0 {
		fmt.Fprintf(c.w, "\nHyperAlloc footprint is %.1f%% below virtio-balloon (paper: 300 -> 234 GiB·min, 22%%);\n",
			(1-foots[1]/foots[0])*100)
	}
	fmt.Fprintln(c.w, "paper: after the cache drop 1.17 GiB (HyperAlloc) vs 4.08 GiB (virtio-balloon).")
	c.writeCSV("fig10.csv", series...)
}

const fig11Paper = `
paper: simultaneous peaks 40.8 GiB regardless of reclamation (footprint -9.1%
  balloon / -40% HyperAlloc); offset peaks drop to 35.98 GiB (balloon, 1 extra
  VM) and 28.11 GiB (HyperAlloc, 2 extra VMs) within the 48 GiB provisioning.
`

// fig11 runs three 16 GiB VMs compiling clang -builds times each, -gap
// minutes apart, with peaks coinciding (worst case) or offset by -offset
// minutes (best case).
func fig11(c *config) {
	minutes := func(m int) sim.Duration { return sim.Duration(m) * 60 * sim.Second }
	scenarios := []struct {
		name   string
		offset int
	}{
		{"simultaneous (Fig. 11a)", 0},
		{fmt.Sprintf("offset %d min (Fig. 11b)", c.offset), c.offset},
	}
	cands := workload.MultiVMCandidates()
	tr := c.tr // one tracer, one simulation: the first scenario's first candidate
	for _, sc := range scenarios {
		results, err := workload.MultiVMAll(cands, workload.MultiVMConfig{
			Units: c.units, Builds: c.builds, Gap: minutes(c.gap), Offset: minutes(sc.offset),
			Seed: c.Seed, Workers: c.Parallel, Trace: tr,
		})
		if err != nil {
			log.Fatalf("%s: %v", c.exp, err)
		}
		tr = nil
		var rows [][]string
		for i, r := range results {
			rows = append(rows, []string{
				r.Candidate,
				gib(r.PeakBytes),
				fmt.Sprintf("%.1f GiB·min", r.FootprintGiBMin),
				fmt.Sprintf("%d", r.ExtraVMs),
			})
			c.writeCSV(fmt.Sprintf("fig11-%s-%s.csv", sanitize(cands[i].Name), sanitize(sc.name)),
				append(r.PerVM, r.Total)...)
			fmt.Fprintf(os.Stderr, "done: %s / %s\n", sc.name, cands[i].Name)
		}
		report.Table(c.w, "Fig. 11 — three VMs, "+sc.name,
			[]string{"candidate", "peak RSS", "footprint", "extra 16 GiB VMs fit"}, rows)
	}
	fmt.Fprint(c.w, fig11Paper)
}

// sanitize maps every rune outside [A-Za-z0-9] to '-' for file names.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '-'
	}, s)
}

func ablation(c *config) {
	// A3: install hypercall vs EPT fault.
	micro, err := workload.MeasureInstallMicro(c.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(c.w, "\n== Ablation A3 — install path ==\n")
	fmt.Fprintf(c.w, "  install hypercall: %v per huge frame\n", micro.InstallPerHuge)
	fmt.Fprintf(c.w, "  EPT-fault populate: %v per huge frame\n", micro.EPTFaultPerHuge)
	fmt.Fprintf(c.w, "  install slowdown: %.1f%% (paper Sec. 5.3: ~6%%)\n", micro.SlowdownPercent)

	scan, err := workload.ScanMicro(c.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(c.w, "\n== Ablation A4 — reclamation-state scan ==\n")
	fmt.Fprintf(c.w, "  %v per GiB of guest memory (paper Sec. 3.3: 18 cache lines/GiB, 'tiny')\n", scan)

	// A1/A2: reservation policy and tree size on the clang build.
	fmt.Fprintf(c.w, "\nrunning reservation-policy ablation (a few minutes of virtual build)...\n")
	results, err := workload.ReservationAblation(900, c.Seed, c.Parallel)
	if err != nil {
		log.Fatal(err)
	}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.FreeHugeAfterBuild),
			fmt.Sprintf("%d", r.FreeHugeAfterDrop),
			fmt.Sprintf("%.3f", r.FragmentationRatio),
			fmt.Sprintf("%.1f GiB·min", r.FootprintGiBMin),
		})
	}
	report.Table(c.w, "Ablation A1/A2 — LLFree reservation policy & tree size (clang build)",
		[]string{"configuration", "free huge post-build", "free huge post-drop", "huge/small ratio", "footprint"}, rows)
}
