package experiments

import (
	"errors"
	"sync"
	"testing"

	"memento/internal/config"
	"memento/internal/workload"
)

// TestPairsConcurrentCallers: many goroutines racing into Pairs must all
// observe the same completed sweep — one underlying run, identical map,
// no nil pairs. Run with -race to check the synchronization.
func TestPairsConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]map[string]*Pair, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sharedSuite.Pairs()
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(results[i]) != len(workload.Profiles()) {
			t.Fatalf("caller %d: %d pairs, want %d", i, len(results[i]), len(workload.Profiles()))
		}
		for name, p := range results[i] {
			if p == nil {
				t.Fatalf("caller %d: nil pair for %s", i, name)
			}
		}
		if &results[i] != &results[0] && len(results[i]) > 0 {
			// Same cached map, not a re-run: compare one pointer identity.
			for name := range results[0] {
				if results[i][name] != results[0][name] {
					t.Fatalf("caller %d got a different sweep for %s", i, name)
				}
				break
			}
		}
	}
}

// seededSuite returns a Suite whose sweep is replaced by the given pairs
// and error, without running any simulation.
func seededSuite(pairs map[string]*Pair, err error) *Suite {
	s := &Suite{}
	s.pairs.val, s.pairs.err, s.pairs.done = pairs, err, true
	return s
}

// TestByClassSkipsMissingPairs: workloads absent from the sweep (their run
// errored) must be skipped, never surfaced as nil entries.
func TestByClassSkipsMissingPairs(t *testing.T) {
	profiles := workload.ByClass(workload.Function)
	if len(profiles) < 2 {
		t.Skip("need at least two micro workloads")
	}
	// Seed every micro workload except the first; leave an explicit nil for
	// the second to guard against regressions to the old append-nil bug.
	pairs := map[string]*Pair{}
	for i, p := range profiles {
		if i == 0 {
			continue
		}
		if i == 1 {
			pairs[p.Name] = nil
			continue
		}
		pairs[p.Name] = &Pair{Prof: p}
	}
	s := seededSuite(pairs, nil)
	got, err := s.ByClass(workload.Function)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(profiles)-2 {
		t.Fatalf("got %d pairs, want %d", len(got), len(profiles)-2)
	}
	for _, p := range got {
		if p == nil {
			t.Fatal("ByClass returned a nil pair")
		}
	}
}

// TestPairsErrorAggregation: a sweep error must surface from Pairs and
// ByClass, with every joined cause visible.
func TestPairsErrorAggregation(t *testing.T) {
	e1 := errors.New("experiments: aes: boom")
	e2 := errors.New("experiments: html (no-bypass): boom")
	s := seededSuite(map[string]*Pair{}, errors.Join(e1, e2))
	if _, err := s.Pairs(); !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("Pairs error lost a cause: %v", err)
	}
	if _, err := s.ByClass(workload.Function); err == nil {
		t.Fatal("ByClass must propagate the sweep error")
	}
}

// TestSuiteOptions pins the functional-option wiring: WithWorkers bounds
// the fan-out, WithProgress attaches the hook, and a default suite is
// zero-configured (GOMAXPROCS workers, no hook).
func TestSuiteOptions(t *testing.T) {
	s := NewSuite(config.Default(), WithWorkers(3), WithProgress(func(Experiment) {}))
	if s.workerCount(100) != 3 {
		t.Fatalf("WithWorkers(3): workerCount=%d", s.workerCount(100))
	}
	if s.workerCount(2) != 2 {
		t.Fatalf("workerCount must not exceed the job count: %d", s.workerCount(2))
	}
	if s.progress == nil {
		t.Fatal("WithProgress did not attach the hook")
	}
	if s := NewSuite(config.Default()); s.workers != 0 || s.progress != nil {
		t.Fatal("default suite not zero-configured")
	}
}
