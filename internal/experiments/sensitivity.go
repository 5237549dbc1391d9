package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"memento/internal/machine"
	"memento/internal/softalloc"
	"memento/internal/stats"
	"memento/internal/trace"
	"memento/internal/workload"
)

// IsoStorage reproduces the Section 6.1 iso-storage comparison: give the
// HOT's SRAM budget to the L1D instead (a hypothetical 9-way, 36 KiB L1D
// at unchanged latency) and compare against Memento on dh (html).
func IsoStorage(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.1-iso",
		Title:  "Iso-storage comparison on dh (html): 9-way L1D vs Memento",
		Paper:  "dedicating the HOT SRAM to a 9-way L1D yields ~3% speedup vs Memento's 28%",
		Header: []string{"configuration", "speedup over baseline"},
	}
	p, _ := workload.ByName("html")
	tr := s.genTrace(p)

	base, mem, err := machine.RunPair(s.Cfg, tr, machine.Options{})
	if err != nil {
		return e, err
	}

	bigCfg := s.Cfg
	bigCfg.L1D.Ways = 9
	bigCfg.L1D.SizeBytes = 9 * (bigCfg.L1D.SizeBytes / 8) // same sets, one more way
	mBig, err := machine.New(bigCfg)
	if err != nil {
		return e, err
	}
	big, err := mBig.Run(tr, machine.Options{Stack: machine.Baseline})
	if err != nil {
		return e, err
	}
	e.Rows = [][]string{
		{"baseline + 9-way 36KB L1D", f3(machine.Speedup(base, big))},
		{"Memento", f3(machine.Speedup(base, mem))},
	}
	return e, nil
}

// SensitivityPopulate reproduces the Section 6.6 MAP_POPULATE study.
func SensitivityPopulate(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.6-populate",
		Title:  "Eagerly populating mmap (MAP_POPULATE) on the baseline",
		Paper:  "Golang: +3% performance but 8.6x physical footprint; Python/C++: no significant speedup, +9.6% memory",
		Header: []string{"group", "speedup vs lazy", "footprint ratio"},
	}
	groups := []struct {
		label string
		profs []workload.Profile
	}{
		{"Python", workload.ByLanguage(workload.Function, trace.Python)},
		{"C++", workload.ByLanguage(workload.Function, trace.Cpp)},
		{"Golang", workload.ByLanguage(workload.Function, trace.Golang)},
	}
	for _, g := range groups {
		var speed, foot []float64
		for _, p := range g.profs {
			tr := s.genTrace(p)
			mLazy, err := machine.New(s.Cfg)
			if err != nil {
				return e, err
			}
			lazy, err := mLazy.Run(tr, machine.Options{Stack: machine.Baseline})
			if err != nil {
				return e, err
			}
			mPop, err := machine.New(s.Cfg)
			if err != nil {
				return e, err
			}
			pop, err := mPop.Run(tr, machine.Options{Stack: machine.Baseline, MmapPopulate: true})
			if err != nil {
				return e, err
			}
			speed = append(speed, machine.Speedup(lazy, pop))
			foot = append(foot, stats.SafeDiv(float64(pop.UserPages), float64(lazy.UserPages)))
		}
		e.Rows = append(e.Rows, []string{g.label, f3(stats.Mean(speed)), fmt.Sprintf("%.1fx", stats.Mean(foot))})
	}
	return e, nil
}

// SensitivityMultiProcess reproduces the Section 6.6 multi-process study:
// four randomly selected function instances time-share one core, ten
// trials, measuring the HOT-flush overhead.
func SensitivityMultiProcess(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.6-multiproc",
		Title:  "Multi-process time sharing: HOT flush overhead",
		Paper:  "flushing the small HOT at context switches has negligible overall performance effect",
		Header: []string{"trial", "ctx+flush share of cycles", "HOT flushes"},
	}
	rng := rand.New(rand.NewSource(42))
	funcs := workload.ByClass(workload.Function)
	var shares []float64
	const trials = 10
	for t := 0; t < trials; t++ {
		var traces []*trace.Trace
		for i := 0; i < 4; i++ {
			p := funcs[rng.Intn(len(funcs))]
			p.Allocs /= 8 // keep the 40-run sweep fast; shares are ratios
			traces = append(traces, workload.Generate(p))
		}
		m, err := machine.New(s.Cfg)
		if err != nil {
			return e, err
		}
		results, err := m.RunMultiProcess(traces, machine.Options{Stack: machine.Memento}, 1500)
		if err != nil {
			return e, err
		}
		var ctx, total, flushes uint64
		for _, r := range results {
			ctx += r.Buckets.CtxSwitch
			total += r.Cycles
			flushes += r.HOT.HOTFlushes
		}
		share := stats.SafeDiv(float64(ctx), float64(total))
		shares = append(shares, share)
		e.Rows = append(e.Rows, []string{fmt.Sprintf("%d", t+1), pct(share), fmt.Sprintf("%d", flushes)})
	}
	e.Rows = append(e.Rows, []string{"average", pct(stats.Mean(shares)), ""})
	e.Notes = append(e.Notes, "the share includes the full scheduler context-switch cost; the HOT-flush component alone is a small fraction of it")
	return e, nil
}

// SensitivityArenaSize reproduces the Section 6.6 allocator-tuning study:
// enlarging the software allocator's chunk size barely moves Memento's
// advantage.
func SensitivityArenaSize(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.6-tuning",
		Title:  "Tuning software allocator arena size (jemalloc chunk bytes, workload UM)",
		Paper:  "larger software arenas change speedup by less than 1%",
		Header: []string{"chunk size", "memento speedup"},
	}
	p, _ := workload.ByName("UM")
	tr := s.genTrace(p)
	var speeds []float64
	for _, chunk := range []uint64{256 << 10, 1 << 20, 4 << 20} {
		opts := softalloc.DefaultJEMallocOpts()
		opts.ChunkBytes = chunk
		// Keep the pre-faulted pool a constant 1 MiB across chunk sizes so
		// the knob varies arena granularity, not the prefault footprint.
		opts.PreallocChunks = int((1 << 20) / chunk)
		if opts.PreallocChunks < 1 {
			opts.PreallocChunks = 1
		}
		base, mem, err := machine.RunPair(s.Cfg, tr, machine.Options{JEMallocOpts: &opts})
		if err != nil {
			return e, err
		}
		sp := machine.Speedup(base, mem)
		speeds = append(speeds, sp)
		e.Rows = append(e.Rows, []string{fmt.Sprintf("%dKB", chunk>>10), f3(sp)})
	}
	lo, hi := stats.MinMax(speeds)
	e.Notes = append(e.Notes, fmt.Sprintf("speedup spread across chunk sizes: %.1f%%", 100*(hi-lo)))
	return e, nil
}

// SensitivityFragmentation reproduces the Section 6.6 fragmentation study:
// inactive arena slots under Memento vs the software allocators.
func SensitivityFragmentation(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.6-frag",
		Title:  "Fragmentation: inactive small-object slots (mean of in-run samples)",
		Paper:  "3.68% of arena slots inactive on average, within +-2% of the software allocators",
		Header: []string{"workload", "memento inactive", "software inactive"},
	}
	pairs, err := s.Pairs()
	if err != nil {
		return e, err
	}
	var mems, softs []float64
	for _, name := range sortedNames(pairs) {
		p := pairs[name]
		mems = append(mems, p.Mem.Fragmentation)
		softs = append(softs, p.Base.Fragmentation)
		e.Rows = append(e.Rows, []string{name, pct(p.Mem.Fragmentation), pct(p.Base.Fragmentation)})
	}
	e.Rows = append(e.Rows, []string{"average", pct(stats.Mean(mems)), pct(stats.Mean(softs))})
	e.Notes = append(e.Notes, "inactive slots mix fragmentation and momentarily-free memory, as the paper notes; miniature-scale live sets keep arenas sparse (see EXPERIMENTS.md)")
	return e, nil
}

// SensitivityColdStart reproduces the Section 6.6 warm-vs-cold study.
func SensitivityColdStart(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.6-cold",
		Title:  "Cold-started functions (container setup on the critical path)",
		Paper:  "with cold starts Memento still gains 7-22%",
		Header: []string{"workload", "warm speedup", "cold speedup"},
	}
	runs, err := s.ColdStarts()
	if err != nil {
		return e, err
	}
	var colds []float64
	for _, r := range runs {
		colds = append(colds, r.Cold)
		e.Rows = append(e.Rows, []string{r.Name, f3(r.Warm), f3(r.Cold)})
	}
	lo, hi := stats.MinMax(colds)
	e.Notes = append(e.Notes, fmt.Sprintf("cold-start speedups span %.1f%%-%.1f%% (paper: 7%%-22%%)", 100*(lo-1), 100*(hi-1)))
	return e, nil
}

// MallaccComparison reproduces Section 6.7: idealized Mallacc vs Memento
// on the DeathStarBench C++ workloads.
func MallaccComparison(s *Suite) (Experiment, error) {
	e := Experiment{
		ID:     "sec6.7-mallacc",
		Title:  "Idealized Mallacc vs Memento (DeathStarBench)",
		Paper:  "idealized Mallacc 5-10% (avg 8%); Memento 12-20% (avg 16%)",
		Header: []string{"workload", "mallacc speedup", "memento speedup"},
	}
	runs, err := s.MallaccRuns()
	if err != nil {
		return e, err
	}
	var ms, mems []float64
	for _, r := range runs {
		ms = append(ms, r.Mallacc)
		mems = append(mems, r.Memento)
		e.Rows = append(e.Rows, []string{r.Name, f3(r.Mallacc), f3(r.Memento)})
	}
	e.Rows = append(e.Rows, []string{"average", f3(stats.Mean(ms)), f3(stats.Mean(mems))})
	return e, nil
}

// All runs every experiment in the paper's order on this suite, reusing
// its cached workload sweep. The memoized sweeps are primed under ctx
// first (see Prime), and the context is re-checked between the remaining
// experiments, so a cancelled sweep job never runs to completion.
func (s *Suite) All(ctx context.Context) ([]Experiment, error) {
	if err := s.Prime(ctx); err != nil {
		return nil, err
	}
	emit := func(out []Experiment) []Experiment {
		if s.progress != nil {
			s.progress(out[len(out)-1])
		}
		return out
	}
	out := []Experiment{}
	for _, e := range []Experiment{Fig2AllocationSizes(s), Fig3Lifetimes(s), Table1Joint(s)} {
		out = emit(append(out, e))
	}
	type runner func(*Suite) (Experiment, error)
	for _, r := range []runner{
		Table2Breakdown, Fig8Speedup, Fig9Breakdown, Fig10Bandwidth, Fig11Memory,
		Fig12HOTHitRate, Fig13ArenaListOps, Fig14Pricing,
		IsoStorage, SensitivityPopulate, SensitivityMultiProcess,
		SensitivityArenaSize, SensitivityFragmentation, SensitivityColdStart,
		MallaccComparison,
	} {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		e, err := r(s)
		if err != nil {
			return out, err
		}
		out = emit(append(out, e))
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	abl, err := Ablations(s)
	if err != nil {
		return out, err
	}
	for _, e := range abl {
		out = emit(append(out, e))
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	ext, err := ExtensionEphemeralGC(s)
	if err != nil {
		return out, err
	}
	out = emit(append(out, ext))
	out = emit(append(out, Table3Config(s)))
	return out, nil
}
