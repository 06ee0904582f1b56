package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	rangereach "repro"
	"repro/internal/server"
)

// update-churn shape.
const (
	churnRate = 100  // updates per second, well under the serial capacity
	hotSet    = 1024 // reader pairs; fits the 4096-entry cache
	// checkGens is the number of generations whose reads are all kept
	// and checked against an oracle of the network replayed to them.
	// Each check rebuilds that network (~0.17 s at scale 1).
	checkGens = 40
)

type opKind uint8

const (
	opAddUser opKind = iota
	opAddVenue
	opCheckin   // add_edge user → venue
	opFriendAdd // add_edge user → user
	opDelEdge   // del_edge of an edge the stream added
	opMoveVenue
)

// updateOp is one /v1/update request of the churn stream.
type updateOp struct {
	kind     opKind
	from, to int // edges; from is the venue of a move
	x, y     float64
	id       int // add_user / add_venue: the id the server must assign
}

func (op updateOp) body() []byte {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch op.kind {
	case opAddUser:
		return []byte(`{"op":"add_user"}`)
	case opAddVenue:
		return []byte(`{"op":"add_venue","x":` + f(op.x) + `,"y":` + f(op.y) + `}`)
	case opCheckin, opFriendAdd:
		return []byte(fmt.Sprintf(`{"op":"add_edge","from":%d,"to":%d}`, op.from, op.to))
	case opDelEdge:
		return []byte(fmt.Sprintf(`{"op":"del_edge","from":%d,"to":%d}`, op.from, op.to))
	default:
		return []byte(fmt.Sprintf(`{"op":"move_venue","vertex":%d,"x":%s,"y":%s}`, op.from, f(op.x), f(op.y)))
	}
}

// space is the bounding box of the base network's venues.
func (b *baseNetwork) space() rangereach.Rect {
	r := rangereach.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, p := range b.points {
		r.MinX, r.MinY = math.Min(r.MinX, p[0]), math.Min(r.MinY, p[1])
		r.MaxX, r.MaxY = math.Max(r.MaxX, p[0]), math.Max(r.MaxY, p[1])
	}
	return r
}

// churnMix is the weight of each op kind in the update stream. The
// additions keep the base network's shape: new users, new venues,
// check-ins (user → venue) and friendships (user → user) come in the
// proportions the base network has them. Deletes and moves take rrload's
// ratios: two deletes of an edge the stream added per three added edges,
// and one move of a venue the stream added per added venue.
func (b *baseNetwork) churnMix() map[opKind]float64 {
	var checkins, friendships float64
	for _, e := range b.edges {
		_, fromVenue := b.points[int(e[0])]
		_, toVenue := b.points[int(e[1])]
		switch {
		case fromVenue:
		case toVenue:
			checkins++
		default:
			friendships++
		}
	}
	venues := float64(len(b.points))
	return map[opKind]float64{
		opAddUser:   float64(b.n) - venues,
		opAddVenue:  venues,
		opCheckin:   checkins,
		opFriendAdd: friendships,
		opDelEdge:   (checkins + friendships) * 2 / 3,
		opMoveVenue: venues,
	}
}

// churnStream draws n updates over the base network in the churnMix
// shares. Half the friendships involve a user the stream added, in
// either direction, so that newcomers close cycles through the giant
// component (merges) that later deletes open again (splits): new users
// are under 1% of the ops, and uniform picks would almost never give
// one both an in- and an out-edge. A delete or move with nothing to
// target yet is drawn again. Every delete names an edge that exists
// when it is applied, so no op fails.
func churnStream(b *baseNetwork, rng *rand.Rand, n int) []updateOp {
	sp := b.space()
	mix := b.churnMix()
	kinds := []opKind{opAddUser, opAddVenue, opCheckin, opFriendAdd, opDelEdge, opMoveVenue}
	var total float64
	for _, k := range kinds {
		total += mix[k]
	}
	var users, venues, joined, created []int // joined, created: users and venues the stream added
	for v := 0; v < b.n; v++ {
		if _, ok := b.points[v]; ok {
			venues = append(venues, v)
		} else {
			users = append(users, v)
		}
	}
	added := map[[2]int]int{} // edge the stream added → index in list
	var list [][2]int
	addEdge := func(u, w int) {
		if _, ok := added[[2]int{u, w}]; !ok {
			added[[2]int{u, w}] = len(list)
			list = append(list, [2]int{u, w})
		}
	}
	nv := b.n
	point := func() (float64, float64) {
		return sp.MinX + rng.Float64()*(sp.MaxX-sp.MinX), sp.MinY + rng.Float64()*(sp.MaxY-sp.MinY)
	}
	ops := make([]updateOp, 0, n)
	for len(ops) < n {
		r := rng.Float64() * total
		kind := kinds[len(kinds)-1]
		for _, k := range kinds {
			if r < mix[k] {
				kind = k
				break
			}
			r -= mix[k]
		}
		switch kind {
		case opAddUser:
			ops = append(ops, updateOp{kind: opAddUser, id: nv})
			users = append(users, nv)
			joined = append(joined, nv)
			nv++
		case opAddVenue:
			x, y := point()
			ops = append(ops, updateOp{kind: opAddVenue, x: x, y: y, id: nv})
			venues = append(venues, nv)
			created = append(created, nv)
			nv++
		case opCheckin:
			u, v := users[rng.Intn(len(users))], venues[rng.Intn(len(venues))]
			addEdge(u, v)
			ops = append(ops, updateOp{kind: opCheckin, from: u, to: v})
		case opFriendAdd:
			u, w := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
			if len(joined) > 0 && rng.Intn(2) == 0 {
				u = joined[rng.Intn(len(joined))]
				if rng.Intn(2) == 0 {
					u, w = w, u
				}
			}
			if u == w {
				continue
			}
			addEdge(u, w)
			ops = append(ops, updateOp{kind: opFriendAdd, from: u, to: w})
		case opDelEdge:
			if len(list) == 0 {
				continue
			}
			i := rng.Intn(len(list))
			e := list[i]
			last := list[len(list)-1]
			list[i], added[last] = last, i
			list = list[:len(list)-1]
			delete(added, e)
			ops = append(ops, updateOp{kind: opDelEdge, from: e[0], to: e[1]})
		case opMoveVenue:
			if len(created) == 0 {
				continue
			}
			x, y := point()
			ops = append(ops, updateOp{kind: opMoveVenue, from: created[rng.Intn(len(created))], x: x, y: y})
		}
	}
	return ops
}

// churnLen is the number of updates in a run of the given length.
func churnLen(seconds float64) int {
	n := int(math.Round(churnRate * seconds))
	if n < 8 {
		n = 8
	}
	return n
}

// replay rebuilds the network from the base file and a prefix of the
// acknowledged updates, through the public NetworkBuilder.
type replay struct {
	n      int
	points map[int][2]float64
	edges  map[[2]int32]struct{}
}

func newReplay(b *baseNetwork) *replay {
	r := &replay{n: b.n, points: make(map[int][2]float64, len(b.points)), edges: make(map[[2]int32]struct{}, len(b.edges))}
	for v, p := range b.points {
		r.points[v] = p
	}
	for _, e := range b.edges {
		r.edges[e] = struct{}{}
	}
	return r
}

func (r *replay) apply(op updateOp) {
	switch op.kind {
	case opAddUser:
		r.n++
	case opAddVenue:
		r.points[r.n] = [2]float64{op.x, op.y}
		r.n++
	case opCheckin, opFriendAdd:
		if op.from != op.to {
			r.edges[[2]int32{int32(op.from), int32(op.to)}] = struct{}{}
		}
	case opDelEdge:
		delete(r.edges, [2]int32{int32(op.from), int32(op.to)})
	case opMoveVenue:
		r.points[op.from] = [2]float64{op.x, op.y}
	}
}

func (r *replay) network() (*rangereach.Network, error) {
	b := rangereach.NewNetworkBuilder(r.n)
	for v, p := range r.points {
		b.SetPoint(v, p[0], p[1])
	}
	for e := range r.edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

// read is one answer the reader saw.
type read struct {
	pair int
	ans  bool
}

func runUpdateChurn(cfg config, o *outcome) error {
	netPath := filepath.Join(cfg.workdir, "update-churn.gsn")
	gen, err := writeNetwork("gowalla-like", cfg.scale, netPath)
	if err != nil {
		return err
	}
	base, err := parseNetwork(netPath)
	if err != nil {
		return err
	}
	nOps := churnLen(cfg.seconds)
	ops := churnStream(base, rand.New(rand.NewSource(cfg.seed)), nOps)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	qg := newQueryGen(gen, rng)
	var users []int
	for v := 0; v < base.n; v++ {
		if _, ok := base.points[v]; !ok {
			users = append(users, v)
		}
	}
	hot := make([]query, hotSet)
	for i := range hot {
		// A region per pair: a shared pool of a few dozen tiles moved the
		// positive share by ±7 points between seeds.
		hot[i] = query{users[rng.Intn(len(users))], qg.region(tileExtents[i%len(tileExtents)])}
	}
	or, err := newOracle(gen)
	if err != nil {
		return err
	}
	exp0 := or.answers(hot)
	if bad := or.crossCheck(hot, exp0, rng); bad > 0 {
		o.wrong += int64(bad)
		o.notef("ORACLE: %d SpaReach-BFL answers disagree with BFS", bad)
	}
	kinds := map[opKind]int{}
	for _, op := range ops {
		kinds[op.kind]++
	}
	o.notef("inputs: gowalla-like scale %g, stream seed %d: %d vertices, %d edges; %d updates at %d/s (users %d, venues %d, check-ins %d, friend adds %d, deletes %d, moves %d); hot set %d pairs, %.3f positive at gen 0",
		cfg.scale, cfg.seed, gen.NumVertices(), gen.NumEdges(), len(ops), churnRate,
		kinds[opAddUser], kinds[opAddVenue], kinds[opCheckin], kinds[opFriendAdd], kinds[opDelEdge], kinds[opMoveVenue],
		hotSet, positiveShare(exp0))

	var led *ledger
	if cfg.trace {
		led = newLedger()
	}
	var dyn *rangereach.DynamicIndex
	var srv *server.Server
	var setups, loads, builds, news []time.Duration
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		net, err := rangereach.LoadNetwork(netPath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		d := net.BuildDynamic()
		t2 := time.Now()
		s, err := server.New(server.Config{Dynamic: d})
		if err != nil {
			return err
		}
		t3 := time.Now()
		req := setupReq + uint64(r)
		led.add("dataset.load", req, t0, t1)
		led.add("index.build", req, t1, t2)
		led.add("server.new", req, t2, t3)
		setups = append(setups, t3.Sub(t0))
		loads = append(loads, t1.Sub(t0))
		builds = append(builds, t2.Sub(t1))
		news = append(news, t3.Sub(t2))
		if srv != nil {
			srv.Close()
		}
		dyn, srv = d, s
	}
	o.set("setup_s", durationsMedian(setups))
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()

	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return err
	}
	var lbt *loopback
	if cfg.trace {
		if lbt, err = startLoopback(led.middleware(srv.Handler())); err != nil {
			return err
		}
	}

	hotReqs := make([][]byte, hotSet)
	for i, q := range hot {
		hotReqs[i] = encodeRequest("POST", "/v1/query", nil, queryBody(q))
	}
	// Warm-up at generation 0: the hot answers are checked against the
	// oracle of the base network.
	if cfg.flipExpected >= 0 {
		exp0[cfg.flipExpected] = !exp0[cfg.flipExpected]
	}
	var next int
	warm := closedLoop(lb.addr, 1, warmUp, func(c *conn, st *loopStats) {
		i := next % hotSet
		next++
		a, err := ask(c, hotReqs[i], hot[i], nil, 0)
		st.record(a, err, exp0[i])
	})
	o.attempted, o.failed, o.wrong = warm.attempted, warm.failed, warm.wrong
	m0, err := lb.scrape()
	if err != nil {
		return err
	}
	runtime.GC()

	// The timed window: the open-loop writer on its own goroutine, the
	// closed-loop reader on this one.
	ct := &churnTimed{d: time.Duration(cfg.seconds * float64(time.Second)), plain: lb.addr, led: led,
		checkEvery: uint64(max(1, len(ops)/checkGens))}
	_, ct.slice = windowsFor(ct.d)
	if lbt != nil {
		ct.traced = lbt.addr
	}
	ct.t0 = time.Now()
	var wr writerResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr = ct.writer(ops)
	}()
	rr := ct.reader(hot, hotReqs, rand.New(rand.NewSource(cfg.seed+2)), lb.scrape, m0)
	wg.Wait()
	acked, lag, ackU := wr.acked, wr.lag, wr.ack
	o.attempted += rr.plain.attempted + rr.traced.attempted + int64(len(ops))
	o.failed += rr.plain.failed + rr.traced.failed + wr.failed
	if wr.err != nil {
		// The rest of the window read an index that no longer changed.
		return fmt.Errorf("invalid run: the update stream stopped: %w", wr.err)
	}
	if rr.err != nil {
		o.notef("READER: %v", rr.err)
	}
	if len(lag) > 0 && lag[len(lag)-1] > maxFinalLag {
		return fmt.Errorf("invalid run: the update schedule fell %.0fms behind (backlog grew)", lag[len(lag)-1]/1e3)
	}
	mEnd, err := lb.scrape()
	if err != nil {
		return err
	}

	// Final reads at the last generation, checked against a fresh
	// 3DReach build of the replayed network.
	finalReads, ferr := finalPass(lb.addr, hot, hotReqs)
	if ferr != nil {
		o.failed++
		o.notef("final reads: %v", ferr)
	}
	rp, err := replayChecks(base, ops[:acked], cfg.dropReplayOp, rr.seen, hot, o)
	if err != nil {
		return err
	}
	finalNet, err := rp.network()
	if err != nil {
		return err
	}
	fresh, err := finalNet.Build(rangereach.ThreeDReach)
	if err != nil {
		return err
	}
	want := make([]bool, hotSet)
	for i, q := range hot {
		want[i] = fresh.RangeReach(q.v, q.r)
		if ferr == nil && finalReads[i] != want[i] {
			o.wrong++
		}
	}

	sample := paritySample(hot, ops[:acked], finalNet, rp, rng)
	var allocs, perReq float64
	if cfg.trace {
		// Pairs the run never asked, so the replay takes the miss path,
		// as most live reads do: every publish flushes the cache.
		miss := sample[hotSet : hotSet+512]
		bodies, exp := make([][]byte, len(miss)), make([]bool, len(miss))
		for i, q := range miss {
			bodies[i], exp[i] = queryBody(q), fresh.RangeReach(q.v, q.r)
		}
		m1, err := lb.scrape()
		if err != nil {
			return err
		}
		if allocs, perReq, err = replayAllocs(srv.Handler(), bodies, exp); err != nil {
			return err
		}
		m2, err := lb.scrape()
		if err != nil {
			return err
		}
		o.notef("in-process replay: %d requests, %.0f cache hits", len(bodies), m2["rr_cache_hits_total"]-m1["rr_cache_hits_total"])
	}
	if err := lb.stop(); err != nil {
		return err
	}
	if lbt != nil {
		if err := lbt.stop(); err != nil {
			return err
		}
	}
	// UpdateStats is writer-only state: read it once the updater stopped.
	srv.Close()
	closed = true
	us := dyn.UpdateStats()
	o.notef("incr: %+v", us)
	o.set("index_bytes", float64(dyn.MemoryBytes()))

	parityBad := 0
	for _, q := range sample {
		if dyn.RangeReach(q.v, q.r) != fresh.RangeReach(q.v, q.r) {
			parityBad++
		}
	}
	o.wrong += int64(parityBad)
	o.notef("parity: %d acknowledged updates replayed; %d sample queries, %d disagree with a fresh 3DReach build",
		acked, len(sample), parityBad)

	sr := rr.plain.w.summary()
	o.notef("reader: %d queries, qps %.0f, p50 %.2fus, p99 %.2fus; updates: ack p50 %.0fus p99 %.0fus, lag p99 %.0fus",
		sr.samples, sr.qps, sr.p50us, sr.p99us, quantile(ackU, 0.5), quantile(ackU, 0.99), quantile(lag, 0.99))
	if !cfg.trace {
		o.set("qps", sr.qps)
		o.set("query_p50_us", sr.p50us)
		o.set("query_p99_us", sr.p99us)
		return nil
	}

	st := rr.traced.w.summary()
	o.set("trace.overhead_frac", 1-ratio(st.qps, sr.qps))
	if v := led.link(); v > 0 {
		o.wrong += int64(v)
		o.notef("LEDGER: %d spans outlast their parent", v)
	}
	led.layers().report(o, true)
	runtimeReport(o, rr.gc, rr.plain.attempted)
	o.set("server.cache_hit_ratio", ratio(rr.hits, rr.hits+rr.misses))
	o.set("server.allocs_per_req", allocs)
	o.set("server.bytes_per_req", perReq)
	const snap = `rr_build_seconds_%s{phase="snapshot"}`
	pubs := mEnd["rr_snapshot_swaps_total"] - m0["rr_snapshot_swaps_total"]
	o.set("updater.publishes", pubs)
	o.set("updater.ops_per_publish", ratio(float64(acked), pubs))
	o.set("updater.publish_us_mean", 1e6*ratio(mEnd[fmt.Sprintf(snap, "sum")]-m0[fmt.Sprintf(snap, "sum")],
		mEnd[fmt.Sprintf(snap, "count")]-m0[fmt.Sprintf(snap, "count")]))
	o.set("updater.ack_us_p50", quantile(ackU, 0.5))
	o.set("updater.ack_us_p99", quantile(ackU, 0.99))
	kops := float64(acked) / 1000
	o.set("incr.merges_per_kop", ratio(float64(us.Merges), kops))
	o.set("incr.splits_per_kop", ratio(float64(us.Splits), kops))
	o.set("incr.cone_relabels_per_kop", ratio(float64(us.ConeRelabels), kops))
	o.set("incr.relabeled_comps_per_kop", ratio(float64(us.RelabeledComps), kops))
	o.set("incr.full_rebuilds", float64(us.FullRebuilds))
	o.set("incr.folds", float64(us.Folds))
	o.set("loadgen.lag_us_p99", quantile(lag, 0.99))

	var counts engineCounts
	for _, q := range sample {
		ok, st := dyn.Explain(q.v, q.r)
		counts.add(ok, st)
	}
	counts.report(o)
	o.set("server.new_ms", durationsMedian(news)*1e3)
	o.set("dataset.load_s", durationsMedian(loads))
	o.set("build.total_s", durationsMedian(builds))
	exp := make([]bool, len(sample))
	for i, q := range sample {
		exp[i] = fresh.RangeReach(q.v, q.r)
	}
	open, err := persistProbe(cfg, fresh, sample, exp, led, o)
	if err != nil {
		return err
	}
	o.set("persist.open_ms", open*1e3)
	return writeSpans(cfg, led, o)
}

// replayChecks replays the acknowledged ops onto the base network —
// leaving out dropOp, the self-tests' hook — and checks the reads kept
// at each generation against a SpaReach-BFL build of the network
// replayed to that generation. It returns the full replay.
func replayChecks(base *baseNetwork, ops []updateOp, dropOp int, seen map[uint64][]read, hot []query, o *outcome) (*replay, error) {
	rp := newReplay(base)
	var gens, checked, bad int
	check := func(gen uint64) error {
		if len(seen[gen]) == 0 {
			return nil
		}
		net, err := rp.network()
		if err != nil {
			return err
		}
		bfl, err := net.Build(rangereach.SpaReachBFL)
		if err != nil {
			return err
		}
		for _, r := range seen[gen] {
			if bfl.RangeReach(hot[r.pair].v, hot[r.pair].r) != r.ans {
				bad++
			}
		}
		gens++
		checked += len(seen[gen])
		return nil
	}
	if err := check(0); err != nil {
		return nil, err
	}
	for i, op := range ops {
		if i != dropOp {
			rp.apply(op)
		}
		if err := check(uint64(i + 1)); err != nil {
			return nil, err
		}
	}
	o.wrong += int64(bad)
	o.notef("mid-run reads: %d checked at %d generations, %d wrong", checked, gens, bad)
	return rp, nil
}

// maxFinalLag bounds how late (µs) the last update may go out: a later
// one means the schedule outran the server and the backlog grew.
const maxFinalLag = 250e3

// paritySample is the final parity check's query set: the hot set,
// seeded random queries over the final vertex range, every new user
// against the whole space, and the latest check-ins against a tight box
// around their venue's final position.
func paritySample(hot []query, ops []updateOp, net *rangereach.Network, rp *replay, rng *rand.Rand) []query {
	sample := append([]query(nil), hot...)
	for i := 0; i < 512; i++ {
		sample = append(sample, query{rng.Intn(net.NumVertices()), hot[rng.Intn(len(hot))].r})
	}
	space := net.Space()
	checkins := 0
	for i := len(ops) - 1; i >= 0; i-- {
		switch op := ops[i]; op.kind {
		case opAddUser:
			sample = append(sample, query{op.id, space})
		case opCheckin:
			if checkins < 256 {
				p := rp.points[op.to]
				sample = append(sample, query{op.from, rangereach.NewRect(p[0]-1e-9, p[1]-1e-9, p[0]+1e-9, p[1]+1e-9)})
				checkins++
			}
		}
	}
	return sample
}

// finalPass asks every hot pair once, in order, on one connection.
func finalPass(addr string, hot []query, hotReqs [][]byte) ([]bool, error) {
	out := make([]bool, len(hot))
	c, err := dial(addr)
	if err != nil {
		return out, err
	}
	defer c.close()
	for i, q := range hot {
		a, err := ask(c, hotReqs[i], q, nil, 0)
		if err != nil {
			return out, err
		}
		out[i] = a.reachable
	}
	return out, nil
}
