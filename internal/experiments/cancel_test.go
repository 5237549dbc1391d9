package experiments

import (
	"context"
	"errors"
	"testing"

	"memento/internal/config"
)

// TestPairsContextCancelDoesNotLatch pins the mementod cancellation
// contract: a cancelled sweep returns context.Canceled, does NOT latch
// the suite's memo, and the same suite completes normally afterwards.
func TestPairsContextCancelDoesNotLatch(t *testing.T) {
	s := NewSuite(config.Default(), WithWorkers(2))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts: fast, deterministic
	if _, err := s.PairsContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PairsContext on dead ctx = %v, want context.Canceled", err)
	}

	// The suite must still be reusable: a fresh call runs the sweep.
	pairs, err := s.Pairs()
	if err != nil {
		t.Fatalf("Pairs after cancelled attempt: %v", err)
	}
	if len(pairs) == 0 {
		t.Fatal("Pairs after cancelled attempt returned no workloads")
	}

	// And the completed sweep memoizes: the memo survives a later dead
	// context because nothing needs recomputing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	again, err := s.PairsContext(ctx2)
	if err != nil {
		t.Fatalf("PairsContext after completion: %v", err)
	}
	if len(again) != len(pairs) {
		t.Fatalf("memoized pairs changed: %d vs %d", len(again), len(pairs))
	}
}

// TestColdAndMallaccCancelDoesNotLatch covers the two derived memos the
// same way: cancellation surfaces context.Canceled and leaves the memo
// unlatched for the next caller.
func TestColdAndMallaccCancelDoesNotLatch(t *testing.T) {
	s := NewSuite(config.Default(), WithWorkers(2))
	// Complete the base sweep first so only the derived runs remain.
	if _, err := s.Pairs(); err != nil {
		t.Fatal(err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.ColdStartsContext(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("ColdStartsContext = %v, want context.Canceled", err)
	}
	if runs, err := s.ColdStarts(); err != nil || len(runs) == 0 {
		t.Fatalf("ColdStarts after cancelled attempt: %d runs, err %v", len(runs), err)
	}

	if _, err := s.MallaccRunsContext(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("MallaccRunsContext = %v, want context.Canceled", err)
	}
	if runs, err := s.MallaccRuns(); err != nil || len(runs) == 0 {
		t.Fatalf("MallaccRuns after cancelled attempt: %d runs, err %v", len(runs), err)
	}
}

// TestAllCancelled: the full evaluation surfaces the context error from
// whichever stage it dies in.
func TestAllCancelled(t *testing.T) {
	s := NewSuite(config.Default(), WithWorkers(2))
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.All(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("All = %v, want context.Canceled", err)
	}
	// Still reusable afterwards — but don't run the whole evaluation
	// here; the base sweep succeeding is the reuse signal.
	if _, err := s.Pairs(); err != nil {
		t.Fatalf("Pairs after cancelled All: %v", err)
	}
}

// TestWithProgressStreamsExperiments: All reports each finished
// experiment through the progress hook, in emission order, exactly the
// set it returns — the hook mementod's sweep jobs stream over SSE.
func TestWithProgressStreamsExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	var got []string
	s := NewSuite(config.Default(),
		WithProgress(func(e Experiment) { got = append(got, e.ID) }))
	exps, err := s.All(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exps) {
		t.Fatalf("progress saw %d experiments, All returned %d", len(got), len(exps))
	}
	for i, e := range exps {
		if got[i] != e.ID {
			t.Errorf("progress[%d] = %s, want %s", i, got[i], e.ID)
		}
	}
}

// TestMidSweepCancel cancels while the fan-out is actually running and
// checks the workers wind down and report context.Canceled rather than a
// partial result.
func TestMidSweepCancel(t *testing.T) {
	s := NewSuite(config.Default(), WithWorkers(2), WithProgress(nil))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var pairs map[string]*Pair
	var err error
	go func() {
		defer close(done)
		pairs, err = s.PairsContext(ctx)
	}()
	cancel()
	<-done
	if err == nil {
		// The sweep may legitimately win the race and complete; then the
		// memo must hold a full result.
		if len(pairs) == 0 {
			t.Fatal("nil error but empty pairs")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel = %v, want context.Canceled", err)
	}
	if _, err := s.Pairs(); err != nil {
		t.Fatalf("suite not reusable after mid-sweep cancel: %v", err)
	}
}
