package main

import (
	"sync"
	"time"
)

// loopStats is one client's tally over a timed interval.
type loopStats struct {
	w                        *windowed
	attempted, failed, wrong int64
}

// record tallies one answered query: a failed request, or a latency
// sample and a check against the expected answer.
func (s *loopStats) record(a answer, err error, want bool) {
	s.attempted++
	if err != nil {
		s.failed++
		return
	}
	s.w.add(a.end, a.end.Sub(a.start))
	if a.reachable != want {
		s.wrong++
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.w.merge(o.w)
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
}

// step sends one request on c and records it in st.
type step func(c *conn, st *loopStats)

// closedLoop runs clients closed-loop callers against addr until d has
// passed: each sends its next request only after the previous answer
// arrived. It returns once every client has closed its connection.
func closedLoop(addr string, clients int, d time.Duration, next step) *loopStats {
	t0 := time.Now()
	deadline := t0.Add(d)
	stats := make([]*loopStats, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		st := &loopStats{w: newWindowed(t0, d)}
		stats[g] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientLoop(addr, deadline, st, next)
		}()
	}
	wg.Wait()
	total := stats[0]
	for _, st := range stats[1:] {
		total.merge(st)
	}
	return total
}

func clientLoop(addr string, deadline time.Time, st *loopStats, next step) {
	var c *conn
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for time.Now().Before(deadline) {
		if c == nil {
			var err error
			if c, err = dial(addr); err != nil {
				st.attempted++
				st.failed++
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		if next(c, st); c.broken {
			c.close()
			c = nil
		}
	}
}
