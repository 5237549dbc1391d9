// Command validate checks the reproduction against the paper's numbers.
// It runs the experiment suite once, evaluates every target in the
// internal/validate registry (Section 2.2 characterization, Section 6
// evaluation, and the §6.1/§6.6/§6.7 studies), prints a human scorecard,
// writes validate_scorecard.json, and exits non-zero if any gating
// (non-scale-sensitive) target leaves its tolerance band — the CI gate
// that makes every future perf or scale change provably non-regressive
// against the paper, not just against yesterday's output.
//
// SIGINT/SIGTERM cancels the sweep at the next per-workload boundary and
// exits 130; the scorecard JSON is written atomically (temp file +
// rename), so an interrupted run never tears a checked-in artifact.
//
// Usage:
//
//	validate                    # scorecard table + validate_scorecard.json
//	validate -json -            # scorecard JSON to stdout
//	validate -json ''           # skip the JSON artifact
//	validate -md                # emit EXPERIMENTS.md to stdout (golden source)
//	validate -workers 4         # bound the sweep's parallel fan-out
//
// Regenerate the checked-in docs after an intentional model change with:
//
//	go run ./cmd/validate -md > EXPERIMENTS.md
//	go run ./cmd/validate -json validate_scorecard.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"memento/internal/atomicio"
	"memento/internal/cli"
	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/validate"
)

func main() { os.Exit(run()) }

func run() int {
	jsonOut := flag.String("json", "validate_scorecard.json", "write the scorecard JSON to FILE (- for stdout, empty to skip)")
	md := flag.Bool("md", false, "emit the generated EXPERIMENTS.md to stdout instead of the scorecard table")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers for the workload sweep")
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()

	s := experiments.NewSuite(config.Default(), experiments.WithWorkers(*workers))
	sc, err := validate.Run(ctx, s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		return cli.ExitCode(err)
	}

	if *md {
		if err := validate.WriteExperimentsMD(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, "validate:", err)
			return cli.ExitFailure
		}
		if !sc.Pass() {
			fmt.Fprintln(os.Stderr, sc.Summary())
			return cli.ExitFailure
		}
		return cli.ExitOK
	}

	if err := sc.WriteTable(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		return cli.ExitFailure
	}
	if *jsonOut != "" {
		write := func(w io.Writer) error { return sc.WriteJSON(w) }
		var werr error
		if *jsonOut == "-" {
			werr = write(os.Stdout)
		} else {
			werr = atomicio.WriteFile(*jsonOut, write)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "validate:", werr)
			return cli.ExitFailure
		}
	}
	if !sc.Pass() {
		return cli.ExitFailure
	}
	return cli.ExitOK
}
