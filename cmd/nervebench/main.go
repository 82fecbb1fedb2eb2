// Command nervebench regenerates the paper's tables and figures.
//
// With -telemetry it also records per-stage latency histograms, counters
// and frame-deadline overruns for the run and writes them to the given
// file in the BENCH_telemetry.json schema (see OBSERVABILITY.md) — the
// machine-readable perf trajectory of the repo.
//
// Usage:
//
//	nervebench -list
//	nervebench -exp fig7            # one experiment
//	nervebench -all                 # everything (DESIGN.md §3)
//	nervebench -exp fig6 -out dir   # write PGM artefacts
//	nervebench -quick               # reduced workload
//	nervebench -workers 1 -exp fig7 # pin the worker pool (also: NERVE_WORKERS)
//	nervebench -all -quick -telemetry BENCH_telemetry.json
package main

import (
	"flag"
	"fmt"
	"os"

	"nerve"
	"nerve/internal/par"
	"nerve/internal/telemetry"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		exp       = flag.String("exp", "", "experiment ID to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		quick     = flag.Bool("quick", false, "reduced workload (CI-scale)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "directory for visualisation artefacts")
		workers   = flag.Int("workers", 0, "worker pool size; 0 = NERVE_WORKERS env or GOMAXPROCS")
		telPath   = flag.String("telemetry", "", "write a BENCH_telemetry.json snapshot of the run to this file")
		telEvents = flag.String("telemetry-events", "", "stream telemetry events (JSON lines) to this file")
		fps       = flag.Float64("fps", 30, "frame-deadline target in frames per second (with -telemetry)")
	)
	flag.Parse()
	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	if *telPath != "" || *telEvents != "" {
		telemetry.Enable(true)
		telemetry.SetDeadlineFPS(*fps)
		if *telEvents != "" {
			f, err := os.Create(*telEvents)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nervebench:", err)
				os.Exit(1)
			}
			defer f.Close()
			telemetry.Default.SetEventSink(f)
		}
	}

	opts := nerve.ExperimentOptions{Quick: *quick, Seed: *seed, OutDir: *out}
	var runErr error
	switch {
	case *list:
		for _, id := range nerve.ExperimentIDs() {
			fmt.Println(id)
		}
	case *all:
		runErr = nerve.RunAllExperiments(opts, os.Stdout)
	case *exp != "":
		runErr = nerve.RunExperiment(*exp, opts, os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "nervebench:", runErr)
		os.Exit(1)
	}
	if *telPath != "" {
		f, err := os.Create(*telPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nervebench:", err)
			os.Exit(1)
		}
		if err := telemetry.Default.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "nervebench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "nervebench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nervebench: telemetry snapshot written to %s\n", *telPath)
	}
}
