package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memento/internal/config"
	"memento/internal/experiments"
	"memento/internal/machine"
	"memento/internal/telemetry"
	"memento/internal/trace"
	"memento/internal/workload"
)

// timelineInterval is the sampling interval of probed runs: the service's
// timeline jobs and the traced run's probed pass.
const timelineInterval = 2000

// genTraces generates (and memoizes process-wide) the 23 paper workload
// traces, one span per profile, and returns them by name.
func genTraces(tr *tracer) map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for _, p := range workload.Profiles() {
		id := tr.begin("setup.workload.GenerateCached", p.Name, 0)
		out[p.Name] = workload.GenerateCached(p)
		tr.end(id)
	}
	return out
}

// sweepWorkload is paper-sweep: repeated experiments.Suite.Pairs, every
// paper workload on baseline, Memento and Memento without bypass. Its
// inputs are the fixed 23 paper profiles; the seed is not used.
type sweepWorkload struct {
	cfg    config.Machine
	traces map[string]*trace.Trace
	// events is the number of trace events one sweep replays.
	events float64
	// ops holds the per-component operation counts of one sweep.
	ops map[string]uint64
	// sweeps is the number of sweeps of the traced phase.
	sweeps int
}

func (w *sweepWorkload) setup(o *options, tr *tracer, rep *report) error {
	w.cfg = config.Default()
	w.traces = genTraces(tr)
	for _, t := range w.traces {
		w.events += float64(len(variants) * t.Len())
	}
	// The first sweep is cold: it pays setup simulation for every
	// (workload, stack) and captures the process-wide warm snapshots.
	_, err := w.sweep(tr, "setup.", rep)
	return err
}

// sweep runs one full sweep and checks every workload's results. Untraced,
// it calls Suite.Pairs; traced, it makes the same calls Suite.sweep makes,
// at the same width, each inside a span.
func (w *sweepWorkload) sweep(tr *tracer, prefix string, rep *report) (map[string]*experiments.Pair, error) {
	var pairs map[string]*experiments.Pair
	var err error
	if tr == nil {
		pairs, err = experiments.NewSuite(w.cfg).Pairs()
	} else {
		pairs, err = w.tracedSweep(tr, prefix)
	}
	for _, p := range workload.Profiles() {
		rep.op(rep.exp.checkPair(p.Name, pairs[p.Name]))
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("sweep produced no results: %w", err)
	}
	return pairs, nil
}

// tracedSweep mirrors Suite.sweep: GOMAXPROCS workers, each taking a
// workload, fetching its trace, running baseline and Memento concurrently
// (as machine.RunPair does), then Memento without bypass.
func (w *sweepWorkload) tracedSweep(tr *tracer, prefix string) (map[string]*experiments.Pair, error) {
	pairs := map[string]*experiments.Pair{}
	var mu sync.Mutex
	err := forEach(workload.Profiles(), func(prof workload.Profile) error {
		root := tr.begin(prefix+"sweep.workload", prof.Name, 0)
		defer tr.end(root)
		g := tr.begin(prefix+"workload.GenerateCached", prof.Name, root)
		t := workload.GenerateCached(prof)
		tr.end(g)
		run := func(variant string, cfg config.Machine, stack machine.Stack) (machine.Result, error) {
			id := tr.begin(prefix+"machine.RunWarm."+variant, prof.Name, root)
			defer tr.end(id)
			return machine.RunWarm(cfg, t, machine.Options{Stack: stack})
		}
		var mem machine.Result
		var merr error
		var pair sync.WaitGroup
		pair.Add(1)
		go func() {
			defer pair.Done()
			mem, merr = run("memento", w.cfg, machine.Memento)
		}()
		base, berr := run("baseline", w.cfg, machine.Baseline)
		pair.Wait()
		nbCfg := w.cfg
		nbCfg.Memento.BypassEnabled = false
		nb, nerr := run("memento-no-bypass", nbCfg, machine.Memento)
		if err := errors.Join(berr, merr, nerr); err != nil {
			return fmt.Errorf("%s: %w", prof.Name, err)
		}
		mu.Lock()
		pairs[prof.Name] = &experiments.Pair{Prof: prof, Trace: t, Base: base, Mem: mem, MemNoBypass: nb}
		mu.Unlock()
		return nil
	})
	return pairs, err
}

func (w *sweepWorkload) timed(o *options, d time.Duration, tr *tracer, rep *report) (phase, error) {
	var ph phase
	for t0 := time.Now(); time.Since(t0) < d; {
		cpu0, s := cpuTime(), time.Now()
		pairs, err := w.sweep(tr, "", rep)
		el := time.Since(s)
		if err != nil {
			return ph, err
		}
		ph.add(el, cpuTime()-cpu0, w.events)
		ph.opTimes = append(ph.opTimes, ms(el))
		if tr != nil {
			w.sweeps++
			w.ops = componentOps(pairs)
		}
	}
	rep.printf("paper-sweep: sweep_s %s; sim_mevents_per_s %.4f", describe(scaleAll(ph.opTimes, 1e-3), "s"), ph.throughput()/1e6)
	return ph, nil
}

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// components are the modelled hardware and software layers whose work
// machine.Result counts.
var components = []string{"cache", "tlb", "dram", "kernel", "softalloc", "core"}

// componentOps sums each component's operation count over a sweep.
func componentOps(pairs map[string]*experiments.Pair) map[string]uint64 {
	ops := map[string]uint64{}
	for _, p := range pairs {
		for _, r := range pairResults(p) {
			ops["cache"] += r.Hier.L1Hits + r.Hier.L1Misses
			ops["tlb"] += r.TLB.L1Hits + r.TLB.L1Misses
			ops["dram"] += r.DRAM.Reads + r.DRAM.Writes
			ops["kernel"] += r.Kernel.Mmaps + r.Kernel.Munmaps + r.Kernel.PageFaults
			ops["softalloc"] += r.Soft.Allocs + r.Soft.Frees
			ops["core"] += r.HOT.Allocs + r.HOT.Frees + r.PageAlloc.Walks
		}
	}
	return ops
}

var stacks = []machine.Stack{machine.Baseline, machine.Memento}

func (w *sweepWorkload) layers(o *options, tr *tracer, ph phase, out map[string]float64, rep *report) error {
	out["workload.gen_s"] = tr.total("setup.workload.GenerateCached").Seconds()

	// Setup simulation plus snapshot capture: a first-use run's time
	// beyond the same run's warm median.
	var setup time.Duration
	for _, v := range variants {
		warm := map[string][]float64{}
		for _, s := range tr.named("machine.RunWarm." + v) {
			warm[s.Job] = append(warm[s.Job], float64(s.dur()))
		}
		for _, s := range tr.named("setup.machine.RunWarm." + v) {
			setup += s.dur() - time.Duration(median(warm[s.Job]))
		}
	}
	out["machine.setup_s"] = setup.Seconds()
	for _, v := range []string{"baseline", "memento"} {
		out["machine.ns_per_event."+v] = w.nsPerEvent(tr.named("machine.RunWarm." + v))
	}

	w.probedPass(tr, rep)
	out["machine.ns_per_event.probed"] = w.nsPerEvent(tr.named("machine.RunWarm.probed"))

	restore, allocBytes, allocObjs, runs, err := w.restorePass(rep)
	if err != nil {
		return err
	}
	out["machine.restore_mb"] = float64(restore) / runs / (1 << 20)
	out["machine.alloc_kb_per_run"] = float64(allocBytes) / runs / 1024
	out["machine.allocs_per_run"] = float64(allocObjs) / runs

	for _, c := range components {
		out[c+".ops"] = float64(w.ops[c])
		if n := float64(w.ops[c]) * float64(w.sweeps); n > 0 {
			out[c+".ns_per_op"] = out[c+".cpu_share"] * float64(ph.cpu) / n
		}
	}
	return nil
}

// nsPerEvent divides the spans' total duration by the trace events they
// replayed.
func (w *sweepWorkload) nsPerEvent(spans []span) float64 {
	var d time.Duration
	var events int
	for _, s := range spans {
		d += s.dur()
		events += w.traces[s.Job].Len()
	}
	if events == 0 {
		return 0
	}
	return float64(d) / float64(events)
}

// stackRun is one (workload, stack) pair.
type stackRun struct {
	name  string
	stack machine.Stack
}

// allRuns lists every (workload, stack) pair of the given profiles.
func allRuns(profiles []workload.Profile) []stackRun {
	var out []stackRun
	for _, p := range profiles {
		for _, s := range stacks {
			out = append(out, stackRun{p.Name, s})
		}
	}
	return out
}

// probedPass runs every (workload, stack) with a probe attached, the cold
// path timeline jobs take, and checks the results: a probe only observes.
func (w *sweepWorkload) probedPass(tr *tracer, rep *report) {
	var mu sync.Mutex
	forEach(allRuns(workload.Profiles()), func(r stackRun) error {
		id := tr.begin("machine.RunWarm.probed", r.name, 0)
		res, err := machine.RunWarm(w.cfg, w.traces[r.name], machine.Options{Stack: r.stack, Probe: telemetry.Nop{}, TimelineInterval: timelineInterval})
		tr.end(id)
		if err == nil {
			err = checkRun(r.name, r.stack.String(), rep.exp.Sweep[r.name], res)
		}
		mu.Lock()
		rep.op(err)
		mu.Unlock()
		return nil
	})
}

// restorePass prepares a warm start per (workload, stack), runs it once,
// then times a second, steady-state restored run serially, reading its
// restore bytes and its heap allocations.
func (w *sweepWorkload) restorePass(rep *report) (restore, allocBytes, allocObjs uint64, runs float64, err error) {
	type warm struct {
		stackRun
		ws *machine.WarmStart
	}
	var mu sync.Mutex
	var ready []warm
	err = forEach(allRuns(workload.Profiles()), func(r stackRun) error {
		t, opt := w.traces[r.name], machine.Options{Stack: r.stack}
		ws, err := machine.PrepareWarm(w.cfg, t, opt)
		if err == nil {
			_, _, err = ws.RunMetered(t, opt)
		}
		if err != nil {
			return err
		}
		mu.Lock()
		ready = append(ready, warm{r, ws})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, r := range ready {
		b0, o0 := heapAllocs()
		res, rs, err := r.ws.RunMetered(w.traces[r.name], machine.Options{Stack: r.stack})
		b1, o1 := heapAllocs()
		if err == nil {
			err = checkRun(r.name, r.stack.String(), rep.exp.Sweep[r.name], res)
		}
		rep.op(err)
		restore += rs.RestoreBytes
		allocBytes += b1 - b0
		allocObjs += o1 - o0
	}
	return restore, allocBytes, allocObjs, float64(len(ready)), nil
}
