package experiments

import (
	"context"
	"fmt"

	"memento/internal/machine"
	"memento/internal/mallacc"
	"memento/internal/stats"
	"memento/internal/trace"
	"memento/internal/workload"
)

// Metric is one measured scalar plus the per-workload samples behind it.
// The samples are what the validation layer bootstraps a confidence
// interval from; a Metric whose value is not a mean over workloads (a
// minimum, a single-workload measurement) carries no samples and gets no
// interval. Sample order is the canonical profile order, so the same
// suite always yields the same slice.
type Metric struct {
	Value   float64
	Samples []float64
}

// mean builds a Metric whose value is the arithmetic mean of its samples.
func mean(samples []float64) Metric {
	return Metric{Value: stats.Mean(samples), Samples: samples}
}

// ColdStarts runs (once) the §6.6 cold-start study: every function
// workload with container setup on the critical path, in canonical
// profile order. Both SensitivityColdStart and the validation extractors
// read this cache, so the figure and the scorecard can never disagree.
func (s *Suite) ColdStarts() ([]ColdRun, error) {
	return s.ColdStartsContext(context.Background())
}

// ColdStartsContext is ColdStarts with cancellation at per-workload
// boundaries; a cancelled study returns ctx.Err() and is not memoized.
func (s *Suite) ColdStartsContext(ctx context.Context) ([]ColdRun, error) {
	return s.colds.get(ctx, s.coldStudy)
}

func (s *Suite) coldStudy(ctx context.Context) ([]ColdRun, error) {
	pairs, err := s.PairsContext(ctx)
	if err != nil {
		return nil, err
	}
	var colds []ColdRun
	for _, prof := range workload.ByClass(workload.Function) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := pairs[prof.Name]
		base, mem, err := machine.RunPair(s.Cfg, p.Trace, machine.Options{ColdStart: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (cold): %w", prof.Name, err)
		}
		colds = append(colds, ColdRun{Name: prof.Name, Warm: p.Speedup(), Cold: machine.Speedup(base, mem)})
	}
	return colds, nil
}

// MallaccRuns runs (once) the §6.7 idealized-Mallacc comparison over the
// DeathStarBench C++ workloads, in canonical profile order. Shared by
// MallaccComparison and the validation extractors.
func (s *Suite) MallaccRuns() ([]MallaccRun, error) {
	return s.MallaccRunsContext(context.Background())
}

// MallaccRunsContext is MallaccRuns with cancellation at per-workload
// boundaries; a cancelled study returns ctx.Err() and is not memoized.
func (s *Suite) MallaccRunsContext(ctx context.Context) ([]MallaccRun, error) {
	return s.mallaccs.get(ctx, s.mallaccStudy)
}

func (s *Suite) mallaccStudy(ctx context.Context) ([]MallaccRun, error) {
	var runs []MallaccRun
	for _, prof := range workload.ByLanguage(workload.Function, trace.Cpp) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := mallacc.Run(s.Cfg, s.genTrace(prof))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (mallacc): %w", prof.Name, err)
		}
		runs = append(runs, MallaccRun{Name: prof.Name, Mallacc: c.MallaccSpeedup(), Memento: c.MementoSpeedup()})
	}
	return runs, nil
}

// ClassSpeedup returns the Fig 8 speedup for one workload class: the mean
// over the class's workloads, with the per-workload speedups as samples.
func ClassSpeedup(s *Suite, c workload.Class) (Metric, error) {
	pairs, err := s.ByClass(c)
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, p := range pairs {
		vs = append(vs, p.Speedup())
	}
	return mean(vs), nil
}

// SmallAllocShares returns the Fig 2 small-allocation (<= 512 B) share
// for a profile set: per-workload fractions as samples, equal-weighted
// mean as the value (the paper's normalization).
func SmallAllocShares(s *Suite, profs []workload.Profile) Metric {
	var vs []float64
	for _, p := range profs {
		vs = append(vs, smallShareFor(s, p))
	}
	return mean(vs)
}

// smallShareFor computes the fraction of p's allocations at most 512 B.
func smallShareFor(s *Suite, p workload.Profile) float64 {
	tr := s.genTrace(p)
	var small, total uint64
	for i := 0; i < tr.Len(); i++ {
		e := tr.At(i)
		if e.Kind != trace.KindAlloc {
			continue
		}
		total++
		if e.Size <= 512 {
			small++
		}
	}
	return stats.SafeDiv(float64(small), float64(total))
}

// ShortLifetimeShares returns the Fig 3 short-lived share (freed within
// 16 same-size-class allocations) for a profile set; never-freed objects
// count as long-lived, exactly as the characterization bins them.
func ShortLifetimeShares(s *Suite, profs []workload.Profile) Metric {
	var vs []float64
	for _, p := range profs {
		vs = append(vs, shortShareFor(s, p))
	}
	return mean(vs)
}

// shortShareFor computes the fraction of p's allocations freed within a
// malloc-free distance of 16 (Section 2.2's definition: same-size-class
// allocations between malloc and free).
func shortShareFor(s *Suite, p workload.Profile) float64 {
	tr := s.genTrace(p)
	classCount := map[uint64]uint64{}
	bornAt := map[int]uint64{}
	classOf := map[int]uint64{}
	var short, total uint64
	for i := 0; i < tr.Len(); i++ {
		e := tr.At(i)
		switch e.Kind {
		case trace.KindAlloc:
			cls := (e.Size + 7) / 8
			classCount[cls]++
			bornAt[e.Obj] = classCount[cls]
			classOf[e.Obj] = cls
			total++
		case trace.KindFree:
			cls := classOf[e.Obj]
			if classCount[cls]-bornAt[e.Obj] <= 16 {
				short++
			}
			delete(bornAt, e.Obj)
		}
	}
	return stats.SafeDiv(float64(short), float64(total))
}

// Table1Shares returns the Table 1 joint size-lifetime quadrants over the
// function workloads: small-short, small-long, large-short, large-long,
// each a per-workload-normalized mean with per-workload samples.
func Table1Shares(s *Suite) (smallShort, smallLong, largeShort, largeLong Metric) {
	var ss, sl, ls, ll []float64
	for _, p := range workload.ByClass(workload.Function) {
		a, b, c, d := table1SharesFor(s, p)
		ss, sl, ls, ll = append(ss, a), append(sl, b), append(ls, c), append(ll, d)
	}
	return mean(ss), mean(sl), mean(ls), mean(ll)
}

// table1SharesFor computes one workload's Table 1 quadrant shares.
// Small is <= 512 B; short-lived is the <= 16 distance bin; never-freed
// objects are long-lived.
func table1SharesFor(s *Suite, p workload.Profile) (smallShort, smallLong, largeShort, largeLong float64) {
	tr := s.genTrace(p)
	classCount := map[uint64]uint64{}
	bornAt := map[int]uint64{}
	classOf := map[int]uint64{}
	sizeOf := map[int]uint64{}
	var ss, sl, ls, ll, n float64
	for i := 0; i < tr.Len(); i++ {
		ev := tr.At(i)
		switch ev.Kind {
		case trace.KindAlloc:
			cls := (ev.Size + 7) / 8
			classCount[cls]++
			bornAt[ev.Obj] = classCount[cls]
			classOf[ev.Obj] = cls
			sizeOf[ev.Obj] = ev.Size
			n++
		case trace.KindFree:
			cls := classOf[ev.Obj]
			d := classCount[cls] - bornAt[ev.Obj]
			small := sizeOf[ev.Obj] <= 512
			if d <= 16 {
				if small {
					ss++
				} else {
					ls++
				}
			} else {
				if small {
					sl++
				} else {
					ll++
				}
			}
			delete(bornAt, ev.Obj)
		}
	}
	for obj := range bornAt {
		if sizeOf[obj] <= 512 {
			sl++
		} else {
			ll++
		}
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	return ss / n, sl / n, ls / n, ll / n
}

// UserCycleShare returns the Table 2 user share of baseline
// memory-management cycles for a profile set: per-workload
// user/(user+kernel) as samples, mean as the value.
func UserCycleShare(s *Suite, profs []workload.Profile) (Metric, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, p := range profs {
		b := pairs[p.Name].Base.Buckets
		u := float64(b.UserAlloc + b.UserFree + b.GC)
		k := float64(b.Kernel)
		vs = append(vs, stats.SafeDiv(u, u+k))
	}
	return mean(vs), nil
}

// GainShares returns the Fig 9 breakdown for one class: the mean share of
// saved cycles attributable to obj-alloc, obj-free, page-mgmt, and the
// bypass, each with per-workload samples.
func GainShares(s *Suite, c workload.Class) (alloc, free, page, bypass Metric, err error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, Metric{}, Metric{}, Metric{}, err
	}
	var a, f, g, by []float64
	for _, prof := range workload.ByClass(c) {
		aa, ff, pp, bb := gainShares(pairs[prof.Name])
		a, f, g, by = append(a, aa), append(f, ff), append(g, pp), append(by, bb)
	}
	return mean(a), mean(f), mean(g), mean(by), nil
}

// DRAMReduction returns the Fig 10 DRAM-traffic reduction for one class
// (1 - memento/baseline bytes), per-workload samples, mean value.
func DRAMReduction(s *Suite, c workload.Class) (Metric, error) {
	pairs, err := s.ByClass(c)
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, p := range pairs {
		vs = append(vs, 1-stats.SafeDiv(float64(p.Mem.DRAM.TotalBytes()), float64(p.Base.DRAM.TotalBytes())))
	}
	return mean(vs), nil
}

// TotalMemoryRatio returns the Fig 11 memento/baseline total-page ratio
// for one class.
func TotalMemoryRatio(s *Suite, c workload.Class) (Metric, error) {
	pairs, err := s.ByClass(c)
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, p := range pairs {
		vs = append(vs, stats.SafeDiv(float64(p.Mem.TotalPages()), float64(p.Base.TotalPages())))
	}
	return mean(vs), nil
}

// UserMemoryRatios returns the Fig 11 memento/baseline user-page ratio
// per workload for a profile set.
func UserMemoryRatios(s *Suite, profs []workload.Profile) (Metric, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, prof := range profs {
		p := pairs[prof.Name]
		vs = append(vs, stats.SafeDiv(float64(p.Mem.UserPages), float64(p.Base.UserPages)))
	}
	return mean(vs), nil
}

// HOTAllocHitRate returns the Fig 12 obj-alloc hit rate over all
// workloads.
func HOTAllocHitRate(s *Suite) (Metric, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, name := range sortedNames(pairs) {
		vs = append(vs, pairs[name].Mem.HOT.AllocHitRate())
	}
	return mean(vs), nil
}

// HOTFreeHitRate returns the Fig 12 obj-free hit rate over the workloads
// that free at all (Golang functions batch-free at exit and are skipped,
// as in the figure).
func HOTFreeHitRate(s *Suite) (Metric, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, name := range sortedNames(pairs) {
		h := pairs[name].Mem.HOT
		if h.Frees == 0 {
			continue
		}
		vs = append(vs, h.FreeHitRate())
	}
	return mean(vs), nil
}

// ArenaAllocListShares returns the Fig 13 arena-list-operation share of
// obj-allocs per workload (all workloads).
func ArenaAllocListShares(s *Suite) (Metric, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return Metric{}, err
	}
	var vs []float64
	for _, name := range sortedNames(pairs) {
		h := pairs[name].Mem.HOT
		vs = append(vs, stats.SafeDiv(float64(h.AllocListOps), float64(h.Allocs)))
	}
	return mean(vs), nil
}

// fig14Row is one function workload's Fig 14 pricing ratios.
type fig14Row struct {
	Name    string
	Runtime float64 // memento/baseline runtime price
	E2E     float64 // memento/baseline end-to-end (with per-invocation fee)
}

// fig14Ratios computes the Fig 14 pricing ratios for every function
// workload; shared by the figure renderer and the validation extractors.
func fig14Ratios(s *Suite) ([]fig14Row, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return nil, err
	}
	model := fig14Model(s)
	var rows []fig14Row
	for _, prof := range workload.ByClass(workload.Function) {
		p := pairs[prof.Name]
		bR, bE := fig14Price(model, p.Base)
		mR, mE := fig14Price(model, p.Mem)
		rows = append(rows, fig14Row{
			Name:    prof.Name,
			Runtime: stats.SafeDiv(mR, bR),
			E2E:     stats.SafeDiv(mE, bE),
		})
	}
	return rows, nil
}

// PricingSavings returns the Fig 14 runtime and end-to-end cost savings
// (1 - memento/baseline price), per-workload samples, mean values.
func PricingSavings(s *Suite) (runtime, endToEnd Metric, err error) {
	rows, err := fig14Ratios(s)
	if err != nil {
		return Metric{}, Metric{}, err
	}
	var rs, es []float64
	for _, r := range rows {
		rs = append(rs, 1-r.Runtime)
		es = append(es, 1-r.E2E)
	}
	return mean(rs), mean(es), nil
}

// IsoStorageGap returns the §6.1 iso-storage margin on dh (html):
// Memento's speedup minus the 9-way-L1D speedup. Single-workload
// measurement, no samples.
func IsoStorageGap(s *Suite) (Metric, error) {
	p, _ := workload.ByName("html")
	tr := s.genTrace(p)
	base, mem, err := machine.RunPair(s.Cfg, tr, machine.Options{})
	if err != nil {
		return Metric{}, err
	}
	bigCfg := s.Cfg
	bigCfg.L1D.Ways = 9
	bigCfg.L1D.SizeBytes = 9 * (bigCfg.L1D.SizeBytes / 8)
	mBig, err := machine.New(bigCfg)
	if err != nil {
		return Metric{}, err
	}
	big, err := mBig.Run(tr, machine.Options{Stack: machine.Baseline})
	if err != nil {
		return Metric{}, err
	}
	return Metric{Value: machine.Speedup(base, mem) - machine.Speedup(base, big)}, nil
}
