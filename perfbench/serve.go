package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	rangereach "repro"
	"repro/internal/server"
)

// serve-zipf shape.
const (
	zipfS       = 1.2   // rrload's default popularity skew
	tilePool    = 64    // regions are drawn from this many fixed tiles
	streamLen   = 65536 // requests in one cycle of the request stream
	zipfClients = 2     // closed-loop connections
	warmUp      = 1500 * time.Millisecond
)

// tileExtents are the tile sizes, in percent of the space.
var tileExtents = []float64{0.1, 0.5, 1, 2}

// queryBody is the /v1/query request body of q.
func queryBody(q query) []byte {
	b := []byte(`{"vertex":`)
	b = strconv.AppendInt(b, int64(q.v), 10)
	b = append(b, `,"region":[`...)
	for i, x := range [4]float64{q.r.MinX, q.r.MinY, q.r.MaxX, q.r.MaxY} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// zipfStream draws the serve-zipf request stream: vertex popularity is
// zipfian over a random ranking of all vertices, the region is a
// uniform pick from the tile pool. It returns the distinct (vertex,
// tile) pairs and the stream as indexes into them.
//
// The ranking belongs to the dataset, like the network: at s = 1.2 the
// top vertex alone draws a fifth of the requests, so a ranking redrawn
// per seed moved the positive share between 5% and 22%.
func zipfStream(g *queryGen) ([]query, []int32) {
	tiles := make([]rangereach.Rect, tilePool)
	for i := range tiles {
		tiles[i] = g.region(tileExtents[i%len(tileExtents)])
	}
	rank := rand.New(rand.NewSource(datasetSeed)).Perm(g.nv)
	z := rand.NewZipf(g.rng, zipfS, 1, uint64(g.nv-1))
	ids := map[[2]int]int32{}
	var pairs []query
	stream := make([]int32, streamLen)
	for i := range stream {
		key := [2]int{rank[z.Uint64()], g.rng.Intn(tilePool)}
		id, ok := ids[key]
		if !ok {
			id = int32(len(pairs))
			ids[key] = id
			pairs = append(pairs, query{key[0], tiles[key[1]]})
		}
		stream[i] = id
	}
	return pairs, stream
}

func runServeZipf(cfg config, o *outcome) error {
	netPath := filepath.Join(cfg.workdir, "serve-zipf.gsn")
	img := filepath.Join(cfg.workdir, "serve-zipf.rrx")
	gen, err := writeNetwork("gowalla-like", cfg.scale, netPath)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pairs, stream := zipfStream(newQueryGen(gen, rng))
	or, err := newOracle(gen)
	if err != nil {
		return err
	}
	exp := or.answers(pairs)
	if bad := or.crossCheck(pairs, exp, rng); bad > 0 {
		o.wrong += int64(bad)
		o.notef("ORACLE: %d SpaReach-BFL answers disagree with BFS", bad)
	}
	if cfg.flipExpected >= 0 {
		exp[stream[cfg.flipExpected]] = !exp[stream[cfg.flipExpected]]
	}
	streamExp := make([]bool, len(stream))
	for i, p := range stream {
		streamExp[i] = exp[p]
	}
	o.notef("inputs: gowalla-like scale %g, query seed %d: %d vertices, %d edges; stream of %d requests over %d distinct pairs (cache holds 4096), %.3f positive",
		cfg.scale, cfg.seed, gen.NumVertices(), gen.NumEdges(), len(stream), len(pairs), positiveShare(streamExp))

	var led *ledger
	if cfg.trace {
		led = newLedger()
	}
	// The served image is built and saved once, outside set-up: set-up
	// is what a restarting rrserve -mmap pays.
	n0, err := rangereach.LoadNetwork(netPath)
	if err != nil {
		return err
	}
	t0 := time.Now()
	built, err := n0.Build(rangereach.ThreeDReach)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := built.SaveFile(img); err != nil {
		return err
	}
	led.add("index.build", setupReq+setupReps, t0, t1)
	buildTime := t1.Sub(t0)
	buildPhases := built.Stats().Phases

	var idx *rangereach.Index
	var srv *server.Server
	var setups, loads, opens, news []time.Duration
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		net, err := rangereach.LoadNetwork(netPath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		m, err := net.OpenMapped(img)
		if err != nil {
			return err
		}
		t2 := time.Now()
		s, err := server.New(server.Config{Index: m})
		if err != nil {
			return err
		}
		t3 := time.Now()
		req := setupReq + uint64(r)
		led.add("dataset.load", req, t0, t1)
		led.add("index.open", req, t1, t2)
		led.add("server.new", req, t2, t3)
		setups = append(setups, t3.Sub(t0))
		loads = append(loads, t1.Sub(t0))
		opens = append(opens, t2.Sub(t1))
		news = append(news, t3.Sub(t2))
		if idx != nil {
			srv.Close()
			if err := idx.Close(); err != nil {
				return err
			}
		}
		idx, srv = m, s
	}
	defer idx.Close()
	defer srv.Close()
	o.set("setup_s", durationsMedian(setups))
	o.set("index_bytes", float64(idx.MappedBytes()))

	reqs := make([][]byte, len(pairs))
	for i, q := range pairs {
		reqs[i] = encodeRequest("POST", "/v1/query", nil, queryBody(q))
	}
	var cur atomic.Uint64
	next := func() int32 { return stream[(cur.Add(1)-1)%uint64(len(stream))] }
	plain := func(c *conn, st *loopStats) {
		p := next()
		a, err := ask(c, reqs[p], pairs[p], nil, 0)
		st.record(a, err, exp[p])
	}

	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return err
	}
	// Warm connections, the cache and the page cache before timing.
	warm := closedLoop(lb.addr, zipfClients, warmUp, plain)
	o.attempted, o.failed, o.wrong = warm.attempted, warm.failed, warm.wrong
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		st := closedLoop(lb.addr, zipfClients, d, plain)
		if err := lb.stop(); err != nil {
			return err
		}
		o.attempted, o.failed, o.wrong = o.attempted+st.attempted, o.failed+st.failed, o.wrong+st.wrong
		s := st.w.summary()
		o.set("qps", s.qps)
		o.set("query_p50_us", s.p50us)
		o.set("query_p99_us", s.p99us)
		o.notef("timed: %d requests, qps %.0f, p50 %.2fus, p99 %.2fus", s.samples, s.qps, s.p50us, s.p99us)
		return nil
	}

	// Traced run: an untraced half (overhead baseline, cache and runtime
	// ledgers), then a traced half on a second listener whose handler is
	// wrapped in the span middleware.
	m0, err := lb.scrape()
	if err != nil {
		return err
	}
	before := readMem()
	su := closedLoop(lb.addr, zipfClients, d/2, plain)
	after := readMem()
	m1, err := lb.scrape()
	if err != nil {
		return err
	}
	if err := lb.stop(); err != nil {
		return err
	}
	runtimeReport(o, gcBetween(before, after), su.attempted)
	hits := m1["rr_cache_hits_total"] - m0["rr_cache_hits_total"]
	misses := m1["rr_cache_misses_total"] - m0["rr_cache_misses_total"]
	o.set("server.cache_hit_ratio", ratio(hits, hits+misses))

	lbt, err := startLoopback(led.middleware(srv.Handler()))
	if err != nil {
		return err
	}
	var seq atomic.Uint64
	traced := func(c *conn, st *loopStats) {
		p := next()
		a, err := ask(c, nil, pairs[p], led, seq.Add(1))
		st.record(a, err, exp[p])
	}
	// Plain requests warm the new listener's connections; the
	// middleware files no span for a request without the benchmark's id.
	warm = closedLoop(lbt.addr, zipfClients, warmUp/3, plain)
	o.attempted, o.failed, o.wrong = o.attempted+warm.attempted, o.failed+warm.failed, o.wrong+warm.wrong
	stt := closedLoop(lbt.addr, zipfClients, d/2, traced)
	if err := lbt.stop(); err != nil {
		return err
	}
	o.attempted += su.attempted + stt.attempted
	o.failed += su.failed + stt.failed
	o.wrong += su.wrong + stt.wrong
	sus, sts := su.w.summary(), stt.w.summary()
	o.set("trace.overhead_frac", 1-ratio(sts.qps, sus.qps))
	o.notef("untraced qps %.0f, traced qps %.0f, cache hits %.0f misses %.0f", sus.qps, sts.qps, hits, misses)
	if v := led.link(); v > 0 {
		o.wrong += int64(v)
		o.notef("LEDGER: %d spans outlast their parent", v)
	}
	led.layers().report(o, true)

	var counts engineCounts
	for i, q := range pairs {
		ok, st := idx.Explain(q.v, q.r)
		if ok != exp[i] {
			o.wrong++
		}
		counts.add(ok, st)
	}
	counts.report(o)

	bodies, want := make([][]byte, 4096), make([]bool, 4096)
	for i := range bodies {
		bodies[i], want[i] = queryBody(pairs[stream[i]]), exp[stream[i]]
	}
	allocs, perReq, err := replayAllocs(srv.Handler(), bodies, want)
	if err != nil {
		return err
	}
	o.set("server.allocs_per_req", allocs)
	o.set("server.bytes_per_req", perReq)
	o.set("server.new_ms", durationsMedian(news)*1e3)
	o.set("dataset.load_s", durationsMedian(loads))
	o.set("persist.open_ms", durationsMedian(opens)*1e3)
	o.set("build.total_s", buildTime.Seconds())
	for _, ph := range buildPhases {
		o.set("build.phase."+ph.Name+"_s", ph.Duration.Seconds())
	}
	return writeSpans(cfg, led, o)
}

// discardWriter is a ResponseWriter that keeps the status and body of
// the last response and nothing else.
type discardWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// replayAllocs sends bodies through h in process and returns the heap
// allocations and bytes per request. Requests and writers are built
// before the measured loop, so only the handler's own allocations
// count. Every answer must equal want.
func replayAllocs(h http.Handler, bodies [][]byte, want []bool) (float64, float64, error) {
	reqs := make([]*http.Request, len(bodies))
	ws := make([]*discardWriter, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest("POST", "/v1/query", bytes.NewReader(b))
		ws[i] = &discardWriter{h: http.Header{}, body: make([]byte, 0, 256)}
	}
	runtime.GC()
	before := readMem()
	for i := range reqs {
		h.ServeHTTP(ws[i], reqs[i])
	}
	after := readMem()
	for i, w := range ws {
		if w.status != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process replay: status %d: %s", w.status, w.body)
		}
		if ans, err := reachable(w.body); err != nil || ans != want[i] {
			return 0, 0, fmt.Errorf("in-process replay: request %d answered %q", i, w.body)
		}
	}
	n := float64(len(reqs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}
