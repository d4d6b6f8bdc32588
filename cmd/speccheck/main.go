// Command speccheck validates declarative scenario spec files without
// running anything: each file is parsed (unknown fields are errors) and
// run through the admission validators, and every failure is printed
// with its stable ID — the same IDs spec.Build returns, so a spec that
// passes here is a spec `broker -spec` will accept.
//
// Usage:
//
//	speccheck FILE...              # validate each file; exit 1 if any fails
//	speccheck -checkpoint FILE...  # restore each checkpoint in memory
//	speccheck -ids                 # print the failure-ID catalogue
//
// With -checkpoint, each FILE is loaded as a simulation checkpoint
// instead: the embedded scenario is re-admitted and the full state is
// restored in memory (running the cross-layer auditor), which catches
// truncated or hand-edited checkpoint files before a -restore run does.
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperalloc/internal/spec"
)

func main() {
	ids := flag.Bool("ids", false, "print the catalogue of stable admission failure IDs and exit")
	checkpoint := flag.Bool("checkpoint", false, "treat the files as simulation checkpoints: validate and restore them in memory")
	flag.Parse()

	if *ids {
		for _, id := range spec.FailureIDs() {
			fmt.Println(id)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: speccheck [-checkpoint] FILE...  |  speccheck -ids")
		os.Exit(2)
	}

	bad := 0
	for _, path := range flag.Args() {
		if err := check(path, *checkpoint); err != nil {
			bad++
			if fe, ok := err.(*spec.FailureError); ok {
				for _, f := range fe.Failures {
					fmt.Printf("%s: FAIL %s\n", path, f.Error())
				}
			} else {
				fmt.Printf("%s: FAIL %v\n", path, err)
			}
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func check(path string, checkpoint bool) error {
	if checkpoint {
		cp, err := spec.LoadCheckpoint(path)
		if err != nil {
			return err
		}
		if fs := spec.Admit(cp.Scenario); len(fs) > 0 {
			return spec.AsError(fs)
		}
		// A full in-memory restore runs the auditor over the rebuilt
		// state — the strongest check short of running the scenario.
		_, err = spec.Restore(cp, spec.BuildOptions{})
		return err
	}
	sc, err := spec.Load(path)
	if err != nil {
		return err
	}
	if fs := spec.Admit(sc); len(fs) > 0 {
		return spec.AsError(fs)
	}
	return nil
}
