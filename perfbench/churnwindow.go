package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// churnTimed is update-churn's timed window. Traced runs alternate
// untraced and traced one-second slices, so both see the same stretch
// of index growth; the untraced slices give the overhead baseline and
// the runtime and cache figures.
type churnTimed struct {
	t0    time.Time
	d     time.Duration
	slice time.Duration
	// checkEvery: the reader keeps every read of the first generation
	// it sees in each run of checkEvery generations.
	checkEvery uint64
	// plain and traced are the listener addresses; traced is empty on
	// untraced runs.
	plain, traced string
	led           *ledger
}

func (ct *churnTimed) tracedAt(t time.Time) bool {
	return ct.traced != "" && int(t.Sub(ct.t0)/ct.slice)%2 == 1
}

// conns keeps one connection per listener, keyed by "traced".
type conns map[bool]*conn

func (cs conns) get(ct *churnTimed, traced bool) (*conn, error) {
	if c := cs[traced]; c != nil && !c.broken {
		return c, nil
	}
	addr := ct.plain
	if traced {
		addr = ct.traced
	}
	c, err := dial(addr)
	if err == nil {
		cs[traced] = c
	}
	return c, err
}

func (cs conns) close() {
	for _, c := range cs {
		c.close()
	}
}

type writerResult struct {
	acked  int
	lag    []float64 // µs each update went out after its due time
	ack    []float64 // µs from due time to ack, untraced slices only
	failed int64
	err    error
}

// writer sends the update stream open loop: op i is due at
// t0 + i/rate whatever happened to op i-1. Latency counts from the due
// time, so a stall delays every later op's figure, and lag records how
// late each send went out. The first failure stops the stream: later
// ops may depend on it.
func (ct *churnTimed) writer(ops []updateOp) writerResult {
	var r writerResult
	cs := conns{}
	defer cs.close()
	fail := func(i int, err error) writerResult {
		r.failed, r.err = int64(len(ops)-i), err
		return r
	}
	for i, op := range ops {
		due := ct.t0.Add(time.Duration(float64(i) / churnRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		traced := ct.tracedAt(due)
		c, err := cs.get(ct, traced)
		if err != nil {
			return fail(i, err)
		}
		id := uint64(1<<40 + i)
		var hdr []byte
		if traced {
			hdr = traceHeaders(nil, id)
		}
		req := encodeRequest("POST", "/v1/update", hdr, op.body())
		send := time.Now()
		status, body, err := c.do(req)
		end := time.Now()
		if err != nil || status != http.StatusOK {
			return fail(i, fmt.Errorf("update %d (%s): status %d: %v", i, op.body(), status, err))
		}
		if op.kind == opAddUser || op.kind == opAddVenue {
			if got, ok := jsonUint(body, "id"); !ok || int(got) != op.id {
				return fail(i, fmt.Errorf("update %d: server assigned id %q, stream expects %d", i, body, op.id))
			}
		}
		// A lone writer makes every op its own publish, so op i is
		// served from generation i+1: the checkpoints rely on it.
		if g, ok := jsonUint(body, "gen"); !ok || g != uint64(i+1) {
			return fail(i, fmt.Errorf("update %d acknowledged at generation %q, want %d", i, body, i+1))
		}
		if traced {
			ct.led.add("client.update", id, send, end)
		} else {
			r.ack = append(r.ack, float64(end.Sub(due).Nanoseconds())/1e3)
		}
		r.lag = append(r.lag, float64(send.Sub(due).Nanoseconds())/1e3)
		r.acked = i + 1
	}
	return r
}

type readerResult struct {
	plain, traced *loopStats
	// seen keeps the reads of the checked generations, by generation.
	seen map[uint64][]read
	// gc, hits and misses cover the untraced slices.
	gc           gcDelta
	hits, misses float64
	err          error
}

// reader is the closed-loop caller: random pairs of the hot set, one
// request at a time, until the window ends. m0 is the /metrics scrape
// taken just before the window.
func (ct *churnTimed) reader(hot []query, hotReqs [][]byte, pick *rand.Rand,
	scrape func() (map[string]float64, error), m0 map[string]float64) readerResult {
	r := readerResult{
		plain:  &loopStats{w: newWindowed(ct.t0, ct.d)},
		traced: &loopStats{w: newWindowed(ct.t0, ct.d)},
		seen:   map[uint64][]read{},
	}
	r.plain.w.sparse, r.traced.w.sparse = ct.traced != "", true
	cs := conns{}
	defer cs.close()
	// At every slice boundary the slice that ended adds its runtime and
	// cache deltas if it was untraced.
	mem, met := readMem(), m0
	slice := 0
	closeSlice := func() {
		mem2 := readMem()
		met2, err := scrape()
		if err != nil {
			r.err = err
			met2 = met
		}
		if !ct.tracedAt(ct.t0.Add(time.Duration(slice) * ct.slice)) {
			r.gc.add(gcBetween(mem, mem2))
			r.hits += met2["rr_cache_hits_total"] - met["rr_cache_hits_total"]
			r.misses += met2["rr_cache_misses_total"] - met["rr_cache_misses_total"]
		}
		mem, met = mem2, met2
	}
	var seq uint64
	bucket, keep := ^uint64(0), uint64(0)
	for {
		now := time.Now()
		if now.Sub(ct.t0) >= ct.d {
			break
		}
		if s := int(now.Sub(ct.t0) / ct.slice); s != slice && ct.traced != "" {
			closeSlice()
			slice = s
		}
		traced := ct.tracedAt(now)
		st := r.plain
		var led *ledger
		if traced {
			st, led = r.traced, ct.led
			seq++
		}
		c, err := cs.get(ct, traced)
		if err != nil {
			st.attempted++
			st.failed++
			r.err = err
			break
		}
		p := pick.Intn(hotSet)
		a, err := ask(c, hotReqs[p], hot[p], led, seq)
		st.attempted++
		if err != nil {
			st.failed++
			r.err = err
			continue
		}
		// Filed under the slice the request was sent in, which decided
		// whether it was traced.
		st.w.addAt(a.start.Sub(ct.t0), a.end.Sub(a.start))
		if b := a.gen / ct.checkEvery; b != bucket {
			bucket, keep = b, a.gen
		}
		if a.gen == keep {
			r.seen[a.gen] = append(r.seen[a.gen], read{p, a.reachable})
		}
	}
	closeSlice()
	return r
}
