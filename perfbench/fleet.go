package main

import (
	"fmt"
	"strconv"
	"time"

	"memento/internal/config"
	"memento/internal/fleet"
	"memento/internal/machine"
	"memento/internal/workload"
)

// fleetWorkload is fleet-scale: a fixed set of fleet cells (arrival
// pattern x keep-warm policy x stack) run back to back on a cost model
// measured during set-up, so the timed phase runs only the scheduling
// engine. Hosts are small enough that LRU evicts, keep-alive TTLs expire
// and bursts queue. The seed picks every cell's arrival seed.
type fleetWorkload struct {
	cells []cell
	// want holds each cell's expected result, in cell order.
	want []cellExp
	// Per pass of the traced phase: counts, and heap allocation totals.
	cold, warm, evictions int
	invocations           int
	allocBytes            uint64
	runs                  int
}

type cell struct {
	name  string
	f     *fleet.Fleet
	stack machine.Stack
}

// fleetShape sizes the cells: 64 dual-core hosts with 16 MiB each and
// 20,000 invocations a cell (the self-test shrinks both).
func fleetShape(tiny bool) (hosts fleet.Hosts, n int, gap uint64) {
	if tiny {
		return fleet.Hosts{Count: 8, Cores: 2, MemPages: 4096}, 400, 400_000
	}
	return fleet.Hosts{Count: 64, Cores: 2, MemPages: 4096}, 20_000, 400_000
}

// buildCells builds the 12 cells for a seed over the given cost model.
func buildCells(cfg config.Machine, be fleet.Backend, seed int64, tiny bool, opts ...fleet.Option) []cell {
	hosts, n, gap := fleetShape(tiny)
	var cells []cell
	for _, arr := range []fleet.Arrivals{fleet.Poisson(n, gap, seed), fleet.Bursty(n, gap, seed), fleet.Diurnal(n, gap, seed)} {
		for _, pol := range []fleet.Policy{fleet.LRU(), fleet.KeepAlive(50_000_000)} {
			for _, stack := range stacks {
				f := fleet.New(cfg, append([]fleet.Option{
					fleet.WithArrivals(arr),
					fleet.WithHosts(hosts),
					fleet.WithPolicy(pol),
					fleet.WithBackend(be),
					fleet.WithoutLatencies(),
				}, opts...)...)
				cells = append(cells, cell{name: fmt.Sprintf("%s/%s/%s", arr.Pattern, pol.Name(), stack), f: f, stack: stack})
			}
		}
	}
	return cells
}

func cellResult(name string, r *fleet.Result) cellExp {
	return cellExp{Cell: name, Invocations: r.Invocations, ColdStarts: r.ColdStarts, WarmHits: r.WarmHits, Evictions: len(r.Evictions), P99: r.P99}
}

// measureCosts measures every (workload, stack) invocation cost on a new
// SimBackend with GOMAXPROCS workers, one span per Measure call.
func measureCosts(cfg config.Machine, tr *tracer) (*fleet.SimBackend, error) {
	be := fleet.NewSimBackend(cfg)
	err := forEach(allRuns(workload.Profiles()), func(r stackRun) error {
		id := tr.begin("setup.fleet.SimBackend.Measure", r.name+"/"+r.stack.String(), 0)
		defer tr.end(id)
		_, err := be.Measure(r.name, r.stack)
		return err
	})
	return be, err
}

// referenceCells runs every cell of a seed on the retained reference-scan
// engine, the oracle the indexed engine must match exactly when results
// are recorded.
func referenceCells(cfg config.Machine, be fleet.Backend, seed int64, tiny bool) ([]cellExp, error) {
	var out []cellExp
	for _, c := range buildCells(cfg, be, seed, tiny, fleet.WithReferenceScans()) {
		r, err := c.f.Run(c.stack)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name, err)
		}
		out = append(out, cellResult(c.name, r))
	}
	return out, nil
}

// fleetSeeds is the number of arrival seeds expected.json holds results
// for: 1 to fleetSeeds.
const fleetSeeds = 64

// arrivalSeed maps a workload seed onto a recorded arrival seed: seeds 1
// to fleetSeeds map to themselves, and every other seed wraps around, so
// that every run is checked against recorded values.
func arrivalSeed(seed int64) int64 {
	return 1 + ((seed-1)%fleetSeeds+fleetSeeds)%fleetSeeds
}

// recordedKey is the expected.json key of an arrival seed's fleet cells.
func recordedKey(seed int64, tiny bool) string {
	k := strconv.FormatInt(seed, 10)
	if tiny {
		k = "tiny/" + k
	}
	return k
}

func (w *fleetWorkload) setup(o *options, tr *tracer, rep *report) error {
	cfg := config.Default()
	genTraces(tr)
	be, err := measureCosts(cfg, tr)
	if err != nil {
		return err
	}
	seed := arrivalSeed(o.seed)
	w.cells = buildCells(cfg, be, seed, o.tiny)
	w.want = rep.exp.Fleet[recordedKey(seed, o.tiny)]
	if len(w.want) != len(w.cells) {
		return fmt.Errorf("expected.json holds %d cells for arrival seed %s, want %d", len(w.want), recordedKey(seed, o.tiny), len(w.cells))
	}
	return nil
}

func (w *fleetWorkload) timed(o *options, d time.Duration, tr *tracer, rep *report) (phase, error) {
	var ph phase
	t0 := time.Now()
	for passes := 0; time.Since(t0) < d; passes++ {
		cpu0, s := cpuTime(), time.Now()
		var invocations float64
		for i, c := range w.cells {
			var b0 uint64
			if tr != nil {
				b0, _ = heapAllocs()
			}
			id := tr.begin("fleet.Run", c.name, 0)
			r, err := c.f.Run(c.stack)
			tr.end(id)
			if err != nil {
				rep.op(fmt.Errorf("fleet cell %s: %w", c.name, err))
				continue
			}
			rep.op(checkCell(w.want[i], cellResult(c.name, r)))
			invocations += float64(r.Invocations)
			if tr != nil {
				b1, _ := heapAllocs()
				w.invocations += r.Invocations
				w.allocBytes += b1 - b0
				w.runs++
				if passes == 0 {
					w.cold += r.ColdStarts
					w.warm += r.WarmHits
					w.evictions += len(r.Evictions)
				}
			}
		}
		el := time.Since(s)
		ph.add(el, cpuTime()-cpu0, invocations)
		ph.opTimes = append(ph.opTimes, ms(el))
	}
	rep.printf("fleet-scale: pass of %d cells %s; fleet_minv_per_s %.4f", len(w.cells), describe(ph.opTimes, "ms"), ph.throughput()/1e6)
	return ph, nil
}

func (w *fleetWorkload) layers(o *options, tr *tracer, ph phase, out map[string]float64, rep *report) error {
	out["workload.gen_s"] = tr.total("setup.workload.GenerateCached").Seconds()
	out["fleet.measure_s"] = tr.total("setup.fleet.SimBackend.Measure").Seconds()
	if w.invocations > 0 {
		out["fleet.ns_per_invocation"] = float64(tr.total("fleet.Run")) / float64(w.invocations)
		out["fleet.alloc_kb_per_run"] = float64(w.allocBytes) / float64(w.runs) / 1024
	}
	out["fleet.cold_starts"] = float64(w.cold)
	out["fleet.warm_hits"] = float64(w.warm)
	out["fleet.evictions"] = float64(w.evictions)
	return nil
}
