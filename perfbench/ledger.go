package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	rangereach "repro"
)

// span is one timed step of the traced run. Spans of one request share
// req; parent is the index of the enclosing span (-1 for a root).
type span struct {
	name       string
	req        uint64
	start, end int64 // ns since the ledger epoch
	parent     int32
	// rel marks a span known only by its duration (the engine and its
	// stages, taken from QueryStats): start and end are offsets from the
	// parent's start until link places it.
	rel bool
}

// ledger keeps the traced run's spans in memory; write dumps them when
// the run ends. Spans are recorded from the benchmark's own code around
// calls into each layer, plus the engine profile the library returns.
type ledger struct {
	epoch time.Time
	slack int64 // timer resolution, the tolerance of the nesting checks

	mu    sync.Mutex
	spans []span
}

// setupReq is the request id range of set-up spans.
const setupReq = 1 << 62

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), slack: timerResolution()}
}

// timerResolution is the smallest step time.Now is seen to take,
// measured, and never below 100ns.
func timerResolution() int64 {
	best := int64(time.Millisecond)
	for i := 0; i < 100; i++ {
		a := time.Now()
		b := time.Now()
		for b.Equal(a) {
			b = time.Now()
		}
		if d := b.Sub(a).Nanoseconds(); d < best {
			best = d
		}
	}
	if best < 100 {
		best = 100
	}
	return best
}

func (l *ledger) ts(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

// add records a span with absolute times. A nil ledger records nothing.
func (l *ledger) add(name string, req uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, req: req, start: l.ts(start), end: l.ts(end), parent: -1})
	l.mu.Unlock()
}

// addEngine records the engine span and its stage spans from a query
// profile. With at set the engine span is a root starting there (the
// direct engine calls of engine-sweep); otherwise it is placed at the
// start of its parent handler span when the ledger is linked.
func (l *ledger) addEngine(req uint64, at time.Time, qs *rangereach.QueryStats) {
	base, rel := int64(0), true
	if !at.IsZero() {
		base, rel = l.ts(at), false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: "engine", req: req, start: base, end: base + qs.Duration.Nanoseconds(), parent: -1, rel: rel})
	off := base
	for _, st := range qs.Stages {
		d := st.Duration.Nanoseconds()
		l.spans = append(l.spans, span{name: "engine." + st.Stage, req: req, start: off, end: off + d, parent: -1, rel: rel})
		off += d
	}
}

// middleware wraps the server's handler and records the server.handler
// span of every request that carries the benchmark's request id.
func (l *ledger) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64); err == nil {
			l.add("server.handler", id, start, end)
		}
	})
}

// parentNames gives, for each span name, the names its parent may have.
func parentNames(name string) []string {
	switch {
	case name == "server.handler":
		return []string{"client", "client.update"}
	case name == "engine":
		return []string{"server.handler"}
	case strings.HasPrefix(name, "engine."):
		return []string{"engine"}
	}
	return nil
}

// link assigns parents within each request, places duration-only spans
// inside their parents and returns the number of nesting violations: a
// child that starts before or ends after its parent by more than the
// timer resolution, or a duration-only span with no parent to sit in.
func (l *ledger) link() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := make([]int, len(l.spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return l.spans[idx[a]].req < l.spans[idx[b]].req })
	violations := 0
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && l.spans[idx[hi]].req == l.spans[idx[lo]].req {
			hi++
		}
		byName := map[string]int{}
		for _, i := range idx[lo:hi] {
			byName[l.spans[i].name] = i
		}
		// Parents before children: the name hierarchy is at most four
		// deep, so resolve in that order.
		for _, depth := range []func(string) bool{
			func(n string) bool { return n == "server.handler" },
			func(n string) bool { return n == "engine" },
			func(n string) bool { return strings.HasPrefix(n, "engine.") },
		} {
			for _, i := range idx[lo:hi] {
				s := &l.spans[i]
				if !depth(s.name) {
					continue
				}
				for _, pn := range parentNames(s.name) {
					if p, ok := byName[pn]; ok {
						s.parent = int32(p)
						break
					}
				}
				if s.rel {
					if s.parent < 0 {
						violations++
						continue
					}
					ps := l.spans[s.parent].start
					s.start += ps
					s.end += ps
					s.rel = false
				}
				if s.parent >= 0 {
					p := l.spans[s.parent]
					if s.start < p.start-l.slack || s.end > p.end+l.slack {
						violations++
					}
				}
			}
		}
		lo = hi
	}
	return violations
}

// maxSpanRows caps the span file; the metrics use every span.
const maxSpanRows = 100000

// write dumps the spans as tab-separated rows: id, parent, request,
// name, start and end in ns since the run's epoch.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range l.spans {
		if i == maxSpanRows {
			break
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// layerTimes folds the linked spans into the per-layer ledger: each
// layer's self time is its span minus the time its children cover.
type layerTimes struct {
	httpSelf, handler, serverSelf, engine []float64 // µs per request
	clientSum, httpSelfSum                float64
	handlerSum, serverSelfSum             float64
	engineSum, stageSum                   float64
	stageSums                             map[string]float64
	stageCounts                           map[string]int
}

func (l *ledger) layers() *layerTimes {
	lt := &layerTimes{stageSums: map[string]float64{}, stageCounts: map[string]int{}}
	children := make([]float64, len(l.spans)) // ns covered by children
	for _, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] += float64(s.end - s.start)
		}
	}
	for i, s := range l.spans {
		d := float64(s.end - s.start)
		self := d - children[i]
		switch {
		case s.name == "client":
			if children[i] == 0 {
				continue // no handler span: the request failed before the handler
			}
			lt.clientSum += d
			lt.httpSelfSum += self
			lt.httpSelf = append(lt.httpSelf, self/1e3)
		case s.name == "server.handler":
			if s.parent < 0 || l.spans[s.parent].name != "client" {
				continue // updates are timed, but the read ledger is about queries
			}
			lt.handlerSum += d
			lt.serverSelfSum += self
			lt.handler = append(lt.handler, d/1e3)
			lt.serverSelf = append(lt.serverSelf, self/1e3)
		case s.name == "engine":
			lt.engineSum += d
			lt.stageSum += children[i]
			lt.engine = append(lt.engine, d/1e3)
		case strings.HasPrefix(s.name, "engine."):
			lt.stageSums[s.name[len("engine."):]] += d
			lt.stageCounts[s.name[len("engine."):]]++
		}
	}
	return lt
}

// report sets the http, server and engine ledger metrics.
func (lt *layerTimes) report(o *outcome, viaServer bool) {
	if viaServer {
		o.set("http.self_us_p50", quantile(lt.httpSelf, 0.5))
		o.set("http.self_frac", ratio(lt.httpSelfSum, lt.clientSum))
		o.set("server.handler_us_p50", quantile(lt.handler, 0.5))
		o.set("server.self_us_p50", quantile(lt.serverSelf, 0.5))
		o.set("server.self_frac", ratio(lt.serverSelfSum, lt.handlerSum))
	}
	o.set("engine.us_p50", quantile(lt.engine, 0.5))
	o.set("engine.us_p99", quantile(lt.engine, 0.99))
	// The 3DReach engines time one stage, the spatial search; the
	// mean is over the queries whose profile has it.
	o.set("engine.stage.spatial_us", ratio(lt.stageSums["spatial"], float64(lt.stageCounts["spatial"]))/1e3)
	o.set("engine.unattributed_frac", 1-ratio(lt.stageSum, lt.engineSum))
	var stages []string
	for st := range lt.stageSums {
		stages = append(stages, fmt.Sprintf("%s=%.3fus", st, ratio(lt.stageSums[st], float64(lt.stageCounts[st]))/1e3))
	}
	sort.Strings(stages)
	o.notef("ledger: %d engine spans, %d handler spans, stage means %s", len(lt.engine), len(lt.handler), strings.Join(stages, " "))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
