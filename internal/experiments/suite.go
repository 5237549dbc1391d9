package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"memento/internal/config"
	"memento/internal/machine"
	"memento/internal/trace"
	"memento/internal/workload"
)

// Pair is one workload's run set.
type Pair struct {
	Prof  workload.Profile
	Trace *trace.Trace
	Base  machine.Result
	Mem   machine.Result
	// MemNoBypass isolates the main-memory-bypass contribution (the
	// yellow-highlighted share of Fig 10).
	MemNoBypass machine.Result
}

// Speedup returns the workload's Memento speedup.
func (p Pair) Speedup() float64 { return machine.Speedup(p.Base, p.Mem) }

// Suite runs and caches all workloads on all stacks. Configure it with
// functional options, mirroring the Runner API:
//
//	s := experiments.NewSuite(cfg, experiments.WithWorkers(4))
//	exps, err := s.All(ctx)
type Suite struct {
	Cfg config.Machine

	// workers bounds the sweep's parallel fan-out. Zero or negative selects
	// runtime.GOMAXPROCS(0), the scheduler's actual parallelism budget.
	workers  int
	progress func(Experiment)

	// The sweep memos let the figure renderers and the validation
	// extractors (internal/validate) share one deterministic measurement
	// set. Each memo has its own lock, so the cold-start study may read
	// the pairs while its own memo is held.
	pairs    memo[map[string]*Pair]
	colds    memo[[]ColdRun]
	mallaccs memo[[]MallaccRun]
}

// memo latches the first completed result of a computation, error
// included. A computation whose context is cancelled is not latched: the
// caller gets ctx.Err(), and a later call with a live context computes
// afresh, so a suite stays reusable after a cancelled job (the mementod
// cancellation contract). Concurrent callers serialize on the memo; the
// first one runs the computation.
type memo[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

func (m *memo[T]) get(ctx context.Context, compute func(context.Context) (T, error)) (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.val, m.err
	}
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	v, err := compute(ctx)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return zero, ctxErr
	}
	m.val, m.err, m.done = v, err, true
	return v, err
}

// ColdRun is one function workload's warm-vs-cold speedup pair from the
// §6.6 cold-start study.
type ColdRun struct {
	Name string
	// Warm is the Fig 8 speedup (setup off the critical path).
	Warm float64
	// Cold is the speedup with container setup on the critical path.
	Cold float64
}

// MallaccRun is one DeathStarBench workload's idealized-Mallacc vs
// Memento speedup pair from the §6.7 comparison.
type MallaccRun struct {
	Name    string
	Mallacc float64
	Memento float64
}

// SuiteOption configures a Suite, the way RunOption configures a Runner.
type SuiteOption func(*Suite)

// WithWorkers bounds the sweep's parallel fan-out (zero or negative
// selects runtime.GOMAXPROCS(0)).
func WithWorkers(n int) SuiteOption { return func(s *Suite) { s.workers = n } }

// WithProgress invokes fn after each experiment Suite.All completes, in
// order (nil detaches). mementod streams sweep telemetry through this
// hook; fn runs synchronously on the sweeping goroutine and must be cheap.
func WithProgress(fn func(Experiment)) SuiteOption { return func(s *Suite) { s.progress = fn } }

// NewSuite creates a suite over the given machine configuration with the
// options applied in order.
func NewSuite(cfg config.Machine, opts ...SuiteOption) *Suite {
	s := &Suite{Cfg: cfg}
	for _, o := range opts {
		o(s)
	}
	return s
}

// genTrace returns the process-wide memoized trace for a profile. Every
// stack and every sensitivity study replays the same deterministic trace,
// and replay never mutates a Trace, which is what makes the sharing sound.
func (s *Suite) genTrace(p workload.Profile) *trace.Trace {
	return workload.GenerateCached(p)
}

// workerCount resolves the effective fan-out for n jobs.
func (s *Suite) workerCount(n int) int {
	w := s.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Pairs runs (once) every workload on baseline, Memento, and
// Memento-without-bypass, in parallel across independent machines. Every
// per-workload error is kept (joined with errors.Join); a workload that
// errors is absent from the returned map, which never contains nil pairs.
func (s *Suite) Pairs() (map[string]*Pair, error) {
	return s.PairsContext(context.Background())
}

// PairsContext is Pairs with cancellation at per-workload boundaries; a
// cancelled sweep returns ctx.Err() and is not memoized.
func (s *Suite) PairsContext(ctx context.Context) (map[string]*Pair, error) {
	return s.pairs.get(ctx, s.sweep)
}

// Prime runs the three memoized sweeps (the workload pairs, the §6.6
// cold-start study and the §6.7 Mallacc study) under ctx, so the renderers
// and validation extractors that read them afterwards never block on
// measurement runs. Cancellation stops it at the next per-workload
// boundary.
func (s *Suite) Prime(ctx context.Context) error {
	if _, err := s.PairsContext(ctx); err != nil {
		return err
	}
	if _, err := s.ColdStartsContext(ctx); err != nil {
		return err
	}
	_, err := s.MallaccRunsContext(ctx)
	return err
}

// sweep runs the full workload sweep. Workers stop picking up new
// workloads once ctx is cancelled; runs already in flight complete (a
// single run is the cancellation granularity).
func (s *Suite) sweep(ctx context.Context) (map[string]*Pair, error) {
	profiles := workload.Profiles()
	pairs := make(map[string]*Pair, len(profiles))
	jobs := make(chan workload.Profile)
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	workers := s.workerCount(len(profiles))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prof := range jobs {
				if ctx.Err() != nil {
					continue // drain the channel without running
				}
				tr := s.genTrace(prof)
				base, mem, err := machine.RunPair(s.Cfg, tr, machine.Options{})
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("experiments: %s: %w", prof.Name, err))
					mu.Unlock()
					continue
				}
				nbCfg := s.Cfg
				nbCfg.Memento.BypassEnabled = false
				noBypass, err := machine.RunWarm(nbCfg, tr, machine.Options{Stack: machine.Memento})
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("experiments: %s (no-bypass): %w", prof.Name, err))
				} else {
					pairs[prof.Name] = &Pair{Prof: prof, Trace: tr, Base: base, Mem: mem, MemNoBypass: noBypass}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, p := range profiles {
		select {
		case jobs <- p:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return pairs, errors.Join(errs...)
}

// ByClass returns the suite's pairs for one workload class, in profile
// order. Workloads missing from the sweep (because their run errored) are
// skipped, never returned as nil.
func (s *Suite) ByClass(c workload.Class) ([]*Pair, error) {
	pairs, err := s.Pairs()
	if err != nil {
		return nil, err
	}
	var out []*Pair
	for _, p := range workload.ByClass(c) {
		if pr, ok := pairs[p.Name]; ok && pr != nil {
			out = append(out, pr)
		}
	}
	return out, nil
}

// Experiment is one rendered table/figure reproduction.
type Experiment struct {
	// ID is the paper's label ("fig8", "table2", "sec6.7", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Paper summarizes what the paper reports.
	Paper string
	// Header and Rows are the measured table.
	Header []string
	Rows   [][]string
	// Notes records reproduction caveats.
	Notes []string
}

// Render formats the experiment as an aligned text table.
func (e Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(e.ID), e.Title)
	fmt.Fprintf(&b, "paper: %s\n", e.Paper)
	widths := make([]int, len(e.Header))
	for i, h := range e.Header {
		widths[i] = len(h)
	}
	for _, r := range e.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(e.Header)
	for _, r := range e.Rows {
		line(r)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// f3 formats a float with three decimals.
func f3(f float64) string { return fmt.Sprintf("%.3f", f) }

// sortedNames returns workload names in canonical profile order.
func sortedNames(pairs map[string]*Pair) []string {
	var out []string
	for _, n := range workload.Names() {
		if _, ok := pairs[n]; ok {
			out = append(out, n)
		}
	}
	return out
}
