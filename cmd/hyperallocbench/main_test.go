package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"hyperalloc/internal/mem"
	"hyperalloc/internal/report"
	"hyperalloc/internal/workload"
)

// paperExperiments is the documented -exp set, one per paper table or
// figure plus the repository's own checks.
var paperExperiments = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"ablation", "speedup", "quick",
}

// parseArgs runs the real flag registration and validation on a fresh
// default flag set, as main would for these arguments.
func parseArgs(args ...string) (*config, error) {
	flag.CommandLine = flag.NewFlagSet("hyperallocbench", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	return parse(args)
}

func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-exp", "fig4", "-reps", "-1"}, "reps"}, // slice bounds panic in InflateAll
		{[]string{"-exp", "fig4", "-reps", "0"}, "reps"},  // silently became 10 reps
		{[]string{"-exp", "fig7", "-reps", "0"}, "reps"},  // integer divide by zero
		{[]string{"-exp", "fig4", "-mem", "0"}, "mem"},    // Touched underflowed to ~16 EiB
		{[]string{"-exp", "fig4", "-mem", "2"}, "mem"},    // not above the shrink target
		{[]string{"-exp", "fig7", "-units", "0"}, "units"},
		{[]string{"-exp", "fig11", "-builds", "0"}, "builds"},
		{[]string{"-exp", "fig11", "-gap", "0"}, "gap"}, // silently became 2 h
		{[]string{"-exp", "fig11", "-offset", "-1"}, "offset"},
		{[]string{"-exp", "fig5", "-threads", "1,0"}, "threads"},
		{[]string{"-exp", "fig6", "-threads", "4,x"}, "threads"},
		{[]string{"-exp", "fig6", "-threads", ""}, "threads"},
		{[]string{"-exp", "fig12"}, "exp"},
	} {
		_, err := parseArgs(tc.args...)
		var ue *usageError
		if !errors.As(err, &ue) || ue.flag != tc.flag {
			t.Errorf("%v: got %v, want a usage error for -%s", tc.args, err, tc.flag)
		}
	}
	if _, err := parseArgs(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestExperimentNamesResolve(t *testing.T) {
	if len(experiments) != len(paperExperiments) {
		t.Errorf("%d experiments registered, %d documented", len(experiments), len(paperExperiments))
	}
	for _, name := range paperExperiments {
		n := 0
		for _, e := range experiments {
			if e.name == name {
				n++
			}
		}
		if n != 1 {
			t.Errorf("-exp %s resolves to %d experiments, want 1", name, n)
		}
		if c, err := parseArgs("-exp", name); err != nil || c.run == nil {
			t.Errorf("-exp %s: %v", name, err)
		}
	}
}

func TestUnknownExperimentListsNames(t *testing.T) {
	_, err := parseArgs("-exp", "inflate")
	var ue *usageError
	if !errors.As(err, &ue) || ue.flag != "exp" {
		t.Fatalf("got %v, want a usage error for -exp", err)
	}
	for _, name := range paperExperiments {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestTable1AndFig4InProcess drives table1 and `-exp fig4 -mem 4 -reps 1`
// through the parsed config and checks the Fig. 4 table and -json
// record against workload.InflateAll for the same configuration.
func TestTable1AndFig4InProcess(t *testing.T) {
	c, err := parseArgs("-exp", "fig4", "-mem", "4", "-reps", "1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.w = &buf
	table1(c)
	c.run(c)

	want, err := workload.InflateAll(workload.InflateConfig{
		Reps: 1, Memory: 4 * mem.GiB, Touched: 3 * mem.GiB, Seed: c.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, r := range want {
		rows = append(rows, []string{r.Candidate, r.Reclaim.String(), r.ReclaimUntouched.String(),
			r.Return.String(), r.ReturnInstall.String()})
	}
	var table bytes.Buffer
	report.Table(&table, "Fig. 4 — de/inflation speed (virtual-time rates)",
		[]string{"candidate", "reclaim", "reclaim untouched", "return", "return+install"}, rows)
	got := buf.String()
	if !strings.Contains(got, "== Table 1 — evaluation candidates and their properties ==") {
		t.Error("Table 1 missing from output")
	}
	if !strings.Contains(got, table.String()) {
		t.Errorf("Fig. 4 table differs from InflateAll:\ngot:\n%s\nwant:\n%s", got, table.String())
	}
	j := c.out.Fig4
	if j == nil || j.Reps != 1 || j.Runs != len(want) || len(j.Candidates) != len(want) {
		t.Errorf("-json fig4 record %+v, want %d runs of %d candidates at 1 rep", j, len(want), len(want))
	}
}
