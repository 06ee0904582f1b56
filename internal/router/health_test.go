package router

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for health tests. It is safe for
// concurrent use: router tests advance it while fan-out goroutines read
// it through the breakers.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time //lint:guardedby mu
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

// useClock points every shard breaker of rt at clk. Call it before the
// first request; the swap is still made under each breaker's lock.
func useClock(rt *Router, clk *fakeClock) {
	for _, h := range rt.health {
		h.mu.Lock()
		h.now = clk.now
		h.mu.Unlock()
	}
}

func mustAllow(t *testing.T, h *health, want bool) {
	t.Helper()
	if got := h.allow(); got != want {
		t.Fatalf("allow() = %v, want %v", got, want)
	}
}

func TestHealthMarkDownAndHalfOpen(t *testing.T) {
	clk := newFakeClock()
	h := newHealth(2, time.Second, clk.now)
	mustAllow(t, h, true)
	h.report(false)
	mustAllow(t, h, true)
	h.report(false) // crosses DownAfter
	if !h.isDown() {
		t.Fatal("not down after threshold")
	}
	mustAllow(t, h, false)
	clk.advance(1100 * time.Millisecond)
	mustAllow(t, h, true)  // half-open trial
	mustAllow(t, h, false) // only one probe at a time
	h.report(true)
	if h.isDown() {
		t.Fatal("still down after successful trial")
	}
	mustAllow(t, h, true)
}

// TestHealthAbortReleasesProbe is the regression test for the probe
// leak: a half-open trial whose call is canceled (early exit, client
// disconnect) must release the probe slot, or allow() refuses the
// shard forever and it can never recover.
func TestHealthAbortReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	h := newHealth(1, time.Second, clk.now)
	h.report(false)
	if !h.isDown() {
		t.Fatal("not down")
	}
	clk.advance(1100 * time.Millisecond)
	mustAllow(t, h, true) // probe granted
	h.abort()             // canceled before any verdict
	if !h.isDown() {
		t.Fatal("abort must not close the breaker")
	}
	mustAllow(t, h, true) // a fresh trial must be granted
	h.report(true)
	if h.isDown() {
		t.Fatal("still down after successful retrial")
	}
}
