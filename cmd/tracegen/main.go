// Command tracegen generates a workload's memory-management event trace
// and writes it as JSON, for inspection or replay with RunTrace.
//
// The output file is written atomically (temp file + rename), so an
// error never leaves a torn trace. SIGINT/SIGTERM exits 130 and leaves no
// new output file: the context is checked after generation and again
// after encoding, before the rename.
//
// Usage:
//
//	tracegen -workload html -o html.trace.json
//	tracegen -workload html          # to stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memento"
	"memento/internal/atomicio"
	"memento/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name = flag.String("workload", "html", "benchmark name")
		out  = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()

	tr, err := memento.GenerateTrace(*name)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return cli.ExitCode(err)
	}
	write := func(w io.Writer) error {
		if err := tr.Encode(w); err != nil {
			return err
		}
		return ctx.Err()
	}
	if *out == "" {
		err = write(os.Stdout)
	} else {
		err = atomicio.WriteFile(*out, write)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		return cli.ExitCode(err)
	}
	if *out != "" {
		s := tr.Summarize()
		fmt.Printf("wrote %s: %d events (%d allocs, %d frees, %d touches)\n",
			*out, tr.Len(), s.Allocs, s.Frees, s.Touches)
	}
	return cli.ExitOK
}
