package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/machine"
)

// expectedJSON holds the simulated outputs every op is checked against,
// recorded with --record. The simulator is deterministic, so a correct
// program reproduces them exactly.
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	// Sweep maps workload -> variant -> its Cycles and Buckets.
	Sweep map[string]map[string]runExp `json:"sweep"`
	// Fleet maps a seed to its cells' results, in cell order.
	Fleet map[string][]cellExp `json:"fleet"`
	// Service maps a job spec id to its content key and result digest.
	Service map[string]jobExp `json:"service"`
}

type runExp struct {
	Cycles  uint64          `json:"cycles"`
	Buckets machine.Buckets `json:"buckets"`
}

type cellExp struct {
	Cell        string `json:"cell"`
	Invocations int    `json:"invocations"`
	ColdStarts  int    `json:"cold_starts"`
	WarmHits    int    `json:"warm_hits"`
	Evictions   int    `json:"evictions"`
	P99         uint64 `json:"p99"`
}

type jobExp struct {
	Key    string `json:"key"`
	Digest string `json:"digest"`
	// Samples is the number of SSE sample frames a miss streams.
	Samples int `json:"samples"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// sweep variants, in the order a Pair holds them.
var variants = []string{"baseline", "memento", "memento-no-bypass"}

func pairResults(p *experiments.Pair) []machine.Result {
	return []machine.Result{p.Base, p.Mem, p.MemNoBypass}
}

// checkPair compares one workload's three runs with the expected values.
func (e *expected) checkPair(name string, p *experiments.Pair) error {
	if p == nil {
		return fmt.Errorf("sweep %s: no result", name)
	}
	want, ok := e.Sweep[name]
	if !ok {
		return fmt.Errorf("sweep %s: no expected values", name)
	}
	for i, r := range pairResults(p) {
		if err := checkRun(name, variants[i], want, r); err != nil {
			return err
		}
	}
	return nil
}

func checkRun(name, variant string, want map[string]runExp, r machine.Result) error {
	w := want[variant]
	if r.Cycles != w.Cycles || r.Buckets != w.Buckets {
		return fmt.Errorf("sweep %s/%s: cycles %d buckets %+v, want %d %+v", name, variant, r.Cycles, r.Buckets, w.Cycles, w.Buckets)
	}
	return nil
}

// checkCell compares one fleet cell's result with want.
func checkCell(want, got cellExp) error {
	if want != got {
		return fmt.Errorf("fleet cell %s: got %+v, want %+v", got.Cell, got, want)
	}
	return nil
}

// record computes every expected value from the current program and
// writes the table to path.
func record(path string, log io.Writer) error {
	cfg := config.Default()
	e := expected{Sweep: map[string]map[string]runExp{}, Fleet: map[string][]cellExp{}}
	pairs, err := experiments.NewSuite(cfg).Pairs()
	if err != nil {
		return err
	}
	for name, p := range pairs {
		m := map[string]runExp{}
		for i, r := range pairResults(p) {
			m[variants[i]] = runExp{Cycles: r.Cycles, Buckets: r.Buckets}
		}
		e.Sweep[name] = m
	}
	fmt.Fprintf(log, "recorded %d sweep workloads\n", len(e.Sweep))
	be, err := measureCosts(cfg, nil)
	if err != nil {
		return err
	}
	// Every arrival seed at full size, and the self-test's seed at its
	// tiny size.
	type fleetRecord struct {
		seed int64
		tiny bool
	}
	recs := []fleetRecord{{1, true}}
	for seed := int64(1); seed <= fleetSeeds; seed++ {
		recs = append(recs, fleetRecord{seed, false})
	}
	for _, rec := range recs {
		ref, err := referenceCells(cfg, be, rec.seed, rec.tiny)
		if err != nil {
			return err
		}
		var cells []cellExp
		for i, c := range buildCells(cfg, be, rec.seed, rec.tiny) {
			r, err := c.f.Run(c.stack)
			if err != nil {
				return fmt.Errorf("fleet cell %s: %w", c.name, err)
			}
			got := cellResult(c.name, r)
			if err := checkCell(ref[i], got); err != nil {
				return fmt.Errorf("indexed engine disagrees with the reference: %w", err)
			}
			cells = append(cells, got)
		}
		e.Fleet[recordedKey(rec.seed, rec.tiny)] = cells
	}
	fmt.Fprintf(log, "recorded fleet cells for %d arrival seeds\n", len(recs))
	if e.Service, err = recordService(cfg); err != nil {
		return err
	}
	fmt.Fprintf(log, "recorded %d service job specs\n", len(e.Service))
	out, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
