package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoLatchesError: an ordinary failure is a completed computation, so
// the memo keeps it and later calls return it without recomputing.
func TestMemoLatchesError(t *testing.T) {
	var m memo[int]
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (int, error) {
		calls++
		return 7, boom
	}
	for i := 0; i < 3; i++ {
		v, err := m.get(context.Background(), compute)
		if !errors.Is(err, boom) || v != 7 {
			t.Fatalf("call %d = (%d, %v), want (7, boom)", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestMemoConcurrentCallersComputeOnce: callers racing into an unlatched
// memo serialize on it; exactly one runs the computation and all see its
// result. Run with -race to check the synchronization.
func TestMemoConcurrentCallersComputeOnce(t *testing.T) {
	const callers = 16
	var m memo[int]
	var calls atomic.Int32
	compute := func(context.Context) (int, error) {
		return int(calls.Add(1)), nil
	}
	var wg sync.WaitGroup
	got := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = m.get(context.Background(), compute)
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := range got {
		if errs[i] != nil || got[i] != 1 {
			t.Fatalf("caller %d = (%d, %v), want (1, nil)", i, got[i], errs[i])
		}
	}
}

// TestMemoCancelDoesNotLatch: a dead context returns context.Canceled and
// leaves the memo unlatched, whether it was dead on entry or died while
// the computation ran; the next live call computes afresh.
func TestMemoCancelDoesNotLatch(t *testing.T) {
	var m memo[int]
	calls := 0
	compute := func(context.Context) (int, error) {
		calls++
		return 42, nil
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.get(dead, compute); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("compute ran %d times on a dead ctx, want 0", calls)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	if _, err := m.get(ctx, func(ctx context.Context) (int, error) {
		cancelMid()
		return compute(ctx)
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx cancelled mid-compute = %v, want context.Canceled", err)
	}

	if v, err := m.get(context.Background(), compute); err != nil || v != 42 {
		t.Fatalf("live call after cancellations = (%d, %v), want (42, nil)", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (one cut short, one latched)", calls)
	}
}
