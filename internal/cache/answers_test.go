package cache

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAnswersGetPut(t *testing.T) {
	a := NewAnswers[string](4, 0, func(s string) int { return len(s) })
	if _, ok := a.Get("q"); ok {
		t.Fatal("hit on empty store")
	}
	a.Put("q", "answer")
	v, ok := a.Get("q")
	if !ok || v != "answer" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 || st.Bytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// The answer store evicts by CLOCK: an answer touched since the hand
// last passed survives one sweep, and an untouched one is the victim.
func TestAnswersSecondChanceEviction(t *testing.T) {
	a := NewAnswers[int](3, 0, nil)
	a.Put("a", 1)
	a.Put("b", 2)
	a.Put("c", 3)
	// The first eviction clears every reference bit along its lap and
	// evicts "a"; "b" and "c" are left without a second chance.
	a.Put("d", 4)
	if _, ok := a.Get("a"); ok {
		t.Fatal("a should have been the first victim")
	}
	a.Get("b") // touch b
	a.Put("e", 5)
	if _, ok := a.Get("b"); !ok {
		t.Fatal("touched b was evicted")
	}
	if _, ok := a.Get("c"); ok {
		t.Fatal("untouched c should have been the victim")
	}
	for _, k := range []string{"d", "e"} {
		if _, ok := a.Get(k); !ok {
			t.Fatalf("%s was evicted", k)
		}
	}
	if st := a.Stats(); st.Evictions != 2 || st.Len != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnswersTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAnswers[int](4, time.Minute, nil)
	a.now = func() time.Time { return now }
	a.Put("k", 7)
	if _, ok := a.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := a.Get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second) // 61s after insertion
	if _, ok := a.Get("k"); ok {
		t.Fatal("entry served past its TTL")
	}
	if st := a.Stats(); st.Evictions != 1 || st.Len != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestAnswersVersionStampInvalidation(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	a.Put("k", 1)
	a.Bump()
	if _, ok := a.Get("k"); ok {
		t.Fatal("stale-version entry served after Bump")
	}
	// Refill at the new version works.
	a.Put("k", 2)
	if v, ok := a.Get("k"); !ok || v != 2 {
		t.Fatalf("post-bump refill: %d, %v", v, ok)
	}
}

// TestAnswersBumpMidComputation: an answer whose computation began
// before a Bump is stored under the old stamp and never served.
func TestAnswersBumpMidComputation(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
			close(started)
			<-release
			return 1, true, nil
		})
	}()
	<-started
	a.Bump() // data appended while the fill is in flight
	close(release)
	<-done
	if _, ok := a.Get("k"); ok {
		t.Fatal("answer computed against the old dataset version was served")
	}
}

// TestAnswersBumpEmptiesStore: Bump retires eagerly — the entries and
// their bytes leave the store and the gauges at once, counted as
// evictions — and a fill that began before the Bump is neither served
// nor stored.
func TestAnswersBumpEmptiesStore(t *testing.T) {
	a := NewAnswers[string](8, 0, func(s string) int { return len(s) })
	a.Put("q:sales", "sales")
	a.Put("q:promo", "promo")

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = a.Do(context.Background(), "q:late", func(context.Context) (string, bool, error) {
			close(started)
			<-release
			return "late", true, nil
		})
	}()
	<-started
	if n := a.Bump(); n != 2 {
		t.Fatalf("Bump dropped %d entries, want 2", n)
	}
	if st := a.Stats(); st.Len != 0 || st.Bytes != 0 || st.Evictions != 2 {
		t.Fatalf("after Bump: len=%d bytes=%d evictions=%d, want 0/0/2", st.Len, st.Bytes, st.Evictions)
	}
	close(release)
	<-done
	if a.Len() != 0 {
		t.Fatalf("a fill begun before the Bump was stored: len=%d", a.Len())
	}
	for _, k := range []string{"q:sales", "q:promo", "q:late"} {
		if _, ok := a.Get(k); ok {
			t.Fatalf("%s served after Bump", k)
		}
	}
	// The store fills again at the new version.
	a.Put("q:sales", "sales")
	if v, ok := a.Get("q:sales"); !ok || v != "sales" {
		t.Fatalf("post-Bump refill: %q, %v", v, ok)
	}
}

func TestAnswersDoOutcomes(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	v, hit, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 9, true, nil
	})
	if err != nil || v != 9 || hit {
		t.Fatalf("first Do: v=%d hit=%v err=%v", v, hit, err)
	}
	v, hit, err = a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		t.Error("recomputed a cached answer")
		return 0, false, nil
	})
	if err != nil || v != 9 || !hit {
		t.Fatalf("second Do: v=%d hit=%v err=%v", v, hit, err)
	}
	if st := a.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one hit and one miss", st)
	}
}

// TestAnswersDoesNotCacheErrors: a failed computation leaves the store
// empty so the next caller retries.
func TestAnswersDoesNotCacheErrors(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	boom := errors.New("boom")
	if _, _, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 0, true, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var calls int
	v, _, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		calls++
		return 3, true, nil
	})
	if err != nil || v != 3 || calls != 1 {
		t.Fatalf("retry after error: v=%d calls=%d err=%v", v, calls, err)
	}
}

// TestAnswersStoreVeto: fn's store=false (a partial/degraded answer)
// returns the value to the caller but keeps it out of the cache.
func TestAnswersStoreVeto(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	v, hit, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 8, false, nil
	})
	if err != nil || v != 8 || hit {
		t.Fatalf("vetoed Do: v=%d hit=%v err=%v", v, hit, err)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("vetoed answer was cached")
	}
}

// TestAnswersCancelledComputationNotCached: the PR 3 rule carried over —
// a computation ended by cancellation caches nothing.
func TestAnswersCancelledComputationNotCached(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := a.Do(ctx, "k", func(ctx context.Context) (int, bool, error) {
		return 0, true, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("cancelled computation was cached")
	}
}
