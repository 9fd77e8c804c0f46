package cache_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// TestLoadPairSharesCache loads two distinct images as a pair and then
// individually: the pair load must populate the cache (2 misses) and the
// follow-up single loads must both hit the same entries.
func TestLoadPairSharesCache(t *testing.T) {
	c := cache.New(0, 0)
	ctx := context.Background()
	a := traceImage(t, 300)
	b := traceImage(t, 500)

	var got [2]*analyzer.Trace
	ha, hb, err := c.LoadPair(ctx, cache.ImageOf(a), cache.ImageOf(b), analyzer.Limits{}, func(i int, h *cache.Handle) {
		got[i] = h.Trace()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Trace() == hb.Trace() {
		t.Fatal("distinct images returned the same trace")
	}
	if got != [2]*analyzer.Trace{ha.Trace(), hb.Trace()} {
		t.Fatal("then did not see each side's own handle")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses from the pair load", st)
	}

	h2, err := c.Load(ctx, a, analyzer.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Trace() != ha.Trace() {
		t.Fatal("single load of side a missed the pair-loaded entry")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit after re-loading side a", st)
	}
}

// TestLoadPairIdenticalSides diffs a trace against itself: the two pair
// sides share one content address, so only one load may run and both
// handles must expose the same shared trace.
func TestLoadPairIdenticalSides(t *testing.T) {
	c := cache.New(0, 0)
	data := traceImage(t, 300)

	ha, hb, err := c.LoadPair(context.Background(), cache.ImageOf(data), cache.ImageOf(data), analyzer.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ha.Trace() != hb.Trace() {
		t.Fatal("identical images did not share one cached trace")
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss for identical sides", st)
	}
	if st.Dedups+st.Hits != 1 {
		t.Fatalf("stats = %+v, want the second side to dedup or hit", st)
	}
}

// TestLoadPairThenPanicReachesCaller: a panic in the per-side step is
// re-raised on the caller, where pdt-tad answers it with a 500, instead
// of killing the process from LoadPair's goroutine.
func TestLoadPairThenPanicReachesCaller(t *testing.T) {
	c := cache.New(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a panic in then did not reach the caller")
		}
	}()
	c.LoadPair(context.Background(), cache.ImageOf(traceImage(t, 300)), cache.ImageOf(traceImage(t, 500)), analyzer.Limits{},
		func(i int, _ *cache.Handle) {
			if i == 1 {
				panic("side b")
			}
		})
}

// TestLoadPairSideError corrupts one side and checks the error names it
// and carries the failing image for doctoring.
func TestLoadPairSideError(t *testing.T) {
	c := cache.New(0, 0)
	good := traceImage(t, 300)
	bad := append([]byte(nil), traceImage(t, 500)...)
	for i := len(bad) / 3; i < len(bad)/3+64 && i < len(bad); i++ {
		bad[i] ^= 0xFF
	}

	var called [2]bool
	_, _, err := c.LoadPair(context.Background(), cache.ImageOf(good), cache.ImageOf(bad), analyzer.Limits{}, func(i int, _ *cache.Handle) {
		called[i] = true
	})
	if called != [2]bool{true, false} {
		t.Fatalf("then called for sides %v, want only the side that loaded", called)
	}
	if err == nil {
		t.Fatal("corrupt side b did not fail the pair load")
	}
	var se *cache.SideError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a SideError", err)
	}
	if se.Side != "b" {
		t.Fatalf("SideError names side %q, want b", se.Side)
	}
	if !bytes.Equal(se.Image.Data(), bad) || se.Image.Key() != cache.KeyOf(bad) {
		t.Fatal("SideError does not carry the failing side's image")
	}
}
