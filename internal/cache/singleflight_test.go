package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCollapsesStorm is the singleflight storm proof: N concurrent
// identical calls trigger exactly one underlying computation. The
// leader blocks until every other caller is confirmed waiting, so the
// assertion cannot flake on scheduling.
func TestGroupCollapsesStorm(t *testing.T) {
	const n = 32
	var g Group[string, int]
	var calls atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, n)
	sharedCount := atomic.Int32{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	waitFor(t, func() bool { return g.Waiting("k") == n-1 })
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("computations = %d, want exactly 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared results = %d, want %d", got, n-1)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d, want 42", i, v)
		}
	}
	if g.Shared() != n-1 {
		t.Fatalf("Shared() = %d, want %d", g.Shared(), n-1)
	}
}

// TestGroupDistinctKeysDoNotCollapse: different keys compute
// independently.
func TestGroupDistinctKeysDoNotCollapse(t *testing.T) {
	var g Group[int, int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), i, func(context.Context) (int, error) {
				calls.Add(1)
				return i * 10, nil
			})
			if err != nil || v != i*10 {
				t.Errorf("key %d: v=%d err=%v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 8 {
		t.Fatalf("calls = %d, want 8", calls.Load())
	}
}

// TestGroupSharesErrors: a non-context error is shared with waiters
// like any other result.
func TestGroupSharesErrors(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-release
				return 0, boom
			})
		}(i)
	}
	waitFor(t, func() bool { return g.Waiting("k") == 1 })
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v, want boom", i, err)
		}
	}
}

// TestGroupNeverSharesCancelledResult: when the leader's context is
// cancelled mid-computation, the waiter does not inherit the
// cancellation — it retries and computes under its own live context.
func TestGroupNeverSharesCancelledResult(t *testing.T) {
	var g Group[string, string]
	leaderStarted := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(leaderCtx, "k", func(ctx context.Context) (string, error) {
			close(leaderStarted)
			<-ctx.Done()
			return "", ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()
	<-leaderStarted

	var followerCalls atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (string, error) {
			followerCalls.Add(1)
			return "fresh", nil
		})
		if err != nil || v != "fresh" {
			t.Errorf("follower: v=%q err=%v", v, err)
		}
		if shared {
			t.Error("follower adopted the cancelled leader's result")
		}
	}()
	waitFor(t, func() bool { return g.Waiting("k") == 1 })
	cancelLeader()
	wg.Wait()
	if followerCalls.Load() != 1 {
		t.Fatalf("follower computations = %d, want 1", followerCalls.Load())
	}
}

// TestGroupWaiterHonorsOwnContext: a waiter whose own context ends
// returns its context error promptly instead of blocking on the leader.
func TestGroupWaiterHonorsOwnContext(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go func() {
		_, _, _ = g.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(context.Context) (int, error) { return 2, nil })
		done <- err
	}()
	waitFor(t, func() bool { return g.Waiting("k") == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not observe its own cancellation")
	}
}

// panicLeader runs do as a leader whose computation panics once waiters
// are confirmed blocked on the key, recovering the panic it must still
// see. It returns the waiters' errors.
func panicLeader(t *testing.T, waiters int, waiting func() int, do func(fn func() int) error) []error {
	t.Helper()
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("the leader's panic was swallowed")
			}
		}()
		_ = do(func() int {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = do(func() int {
				t.Error("a waiter ran the computation while the leader held the key")
				return 0
			})
		}(i)
	}
	waitFor(t, func() bool { return waiting() == waiters })
	close(release)
	wg.Wait() // a poisoned key would hang here until the test times out
	return errs
}

// A panicking leader must release its key and wake its waiters with an
// error before the panic propagates; the next call runs fresh.
func TestGroupPanickingLeaderReleasesKey(t *testing.T) {
	var g Group[string, int]
	ctx := context.Background()
	errs := panicLeader(t, 3, func() int { return g.Waiting("k") }, func(fn func() int) error {
		_, _, err := g.Do(ctx, "k", func(context.Context) (int, error) { return fn(), nil })
		return err
	})
	for i, err := range errs {
		if !errors.Is(err, ErrLeaderPanicked) {
			t.Errorf("waiter %d: err = %v, want ErrLeaderPanicked", i, err)
		}
	}
	if g.Waiting("k") != 0 {
		t.Fatal("key still in flight after the panic")
	}
	v, shared, err := g.Do(ctx, "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Fatalf("call after the panic: v=%d shared=%v err=%v", v, shared, err)
	}
}

// Answers.Compute coalesces through the same Group, so it inherits the
// rule: waiters get the error, nothing is cached, the next call computes.
func TestAnswersPanickingLeaderReleasesKey(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	ctx := context.Background()
	errs := panicLeader(t, 2, func() int { return a.Waiting("k") }, func(fn func() int) error {
		_, _, err := a.Compute(ctx, "k", func(context.Context) (int, bool, error) { return fn(), true, nil })
		return err
	})
	for i, err := range errs {
		if !errors.Is(err, ErrLeaderPanicked) {
			t.Errorf("waiter %d: err = %v, want ErrLeaderPanicked", i, err)
		}
	}
	v, outcome, err := a.Compute(ctx, "k", func(context.Context) (int, bool, error) { return 5, true, nil })
	if v != 5 || outcome != OutcomeMiss || err != nil {
		t.Fatalf("call after the panic: v=%d outcome=%v err=%v", v, outcome, err)
	}
}
