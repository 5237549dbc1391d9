// Multi-tenant node: over-subscribe one core with four time-sharing
// function instances (the Section 6.6 multi-process study) and show that
// flushing the HOT at context switches costs next to nothing.
package main

import (
	"fmt"
	"log"

	"memento"
)

func main() {
	cfg := memento.DefaultConfig()

	names := []string{"html", "aes", "US", "bfs-go"}
	var traces []*memento.Trace
	for _, n := range names {
		tr, err := memento.GenerateTrace(n)
		if err != nil {
			log.Fatal(err)
		}
		traces = append(traces, tr)
	}

	results, err := memento.NewRunner(cfg, memento.WithStack(memento.Memento)).RunMultiProcess(traces, 2000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("four function instances time-sharing one core (Memento stack)")
	fmt.Printf("%-10s %14s %12s %12s %14s\n", "instance", "cycles", "HOT flushes", "ctx cycles", "ctx share")
	var totalCtx, totalCycles uint64
	for i, r := range results {
		share := float64(r.Buckets.CtxSwitch) / float64(r.Cycles)
		fmt.Printf("%-10s %14d %12d %12d %13.2f%%\n",
			names[i], r.Cycles, r.HOT.HOTFlushes, r.Buckets.CtxSwitch, 100*share)
		totalCtx += r.Buckets.CtxSwitch
		totalCycles += r.Cycles
	}
	fmt.Printf("\ncontext-switch + HOT-flush share overall: %.2f%% — negligible, as Section 6.6 reports\n",
		100*float64(totalCtx)/float64(totalCycles))
}
