package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	rangereach "repro"
)

// setupReps is how many times every run repeats its set-up; setup_s is
// the median.
const setupReps = 5

// perCell is the number of queries per cell of the §6.1 grid.
const perCell = 160

// targetPositive is the share of positive answers the rejection-sampled
// negative slice brings the engine-sweep mix down to.
const targetPositive = 0.6

// sweepQueries builds the engine-sweep mix: every extent × degree
// bucket, every selectivity at the default bucket, and a negative slice
// rejection-sampled against the oracle, shuffled into one closed-loop
// sequence.
func sweepQueries(g *queryGen, or *oracle) []query {
	var qs []query
	for _, e := range extentsPct {
		for b := range degreeBuckets {
			for i := 0; i < perCell; i++ {
				qs = append(qs, query{g.vertex(b), g.region(e)})
			}
		}
	}
	for _, s := range selectivities {
		for i := 0; i < perCell; i++ {
			qs = append(qs, query{g.vertex(defaultBucket), g.regionSel(s)})
		}
	}
	pos := 0
	for _, q := range qs {
		if or.answer(q) {
			pos++
		}
	}
	// Enough negatives to bring the positive share to the target, and
	// never fewer than one grid cell's worth.
	neg := int(float64(pos)/targetPositive) - len(qs)
	if neg < perCell {
		neg = perCell
	}
	for n := 0; n < neg; n++ {
		for attempt := 0; attempt < 200; attempt++ {
			q := query{g.vertex(defaultBucket), g.region(extentsPct[g.rng.Intn(len(extentsPct))])}
			if !or.answer(q) {
				qs = append(qs, q)
				break
			}
		}
	}
	g.rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// sweepLoop is engine-sweep's closed loop: one goroutine calls ask on
// the query sequence, round after round, until d has passed, and checks
// every answer. Calls are timed on the monotonic clock alone
// (time.Since), which costs about half a time.Now on the reference host.
func sweepLoop(qs []query, exp []bool, d time.Duration, ask func(i int, q query) bool) (*windowed, int64) {
	t0 := time.Now()
	w := newWindowed(t0, d)
	var wrong int64
	for i := 0; ; i++ {
		j := i % len(qs)
		start := time.Since(t0)
		if start >= d {
			break
		}
		ok := ask(i, qs[j])
		end := time.Since(t0)
		w.addAt(end, end-start)
		if ok != exp[j] {
			wrong++
		}
	}
	return w, wrong
}

func runEngineSweep(cfg config, o *outcome) error {
	netPath := filepath.Join(cfg.workdir, "engine-sweep.gsn")
	gen, err := writeNetwork("yelp-like", cfg.scale, netPath)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	or, err := newOracle(gen)
	if err != nil {
		return err
	}
	qs := sweepQueries(newQueryGen(gen, rng), or)
	exp := or.answers(qs)
	if bad := or.crossCheck(qs, exp, rng); bad > 0 {
		o.wrong += int64(bad)
		o.notef("ORACLE: %d SpaReach-BFL answers disagree with BFS", bad)
	}
	if cfg.flipExpected >= 0 {
		exp[cfg.flipExpected] = !exp[cfg.flipExpected]
	}
	o.notef("inputs: yelp-like scale %g, query seed %d: %d vertices, %d edges; %d queries, %.3f positive",
		cfg.scale, cfg.seed, gen.NumVertices(), gen.NumEdges(), len(qs), positiveShare(exp))

	var led *ledger
	if cfg.trace {
		led = newLedger()
	}
	var idx *rangereach.Index
	var setups, loads, builds []time.Duration
	phases := map[string][]time.Duration{}
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		net, err := rangereach.LoadNetwork(netPath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		ix, err := net.Build(rangereach.ThreeDReach)
		if err != nil {
			return err
		}
		t2 := time.Now()
		led.add("dataset.load", setupReq+uint64(r), t0, t1)
		led.add("index.build", setupReq+uint64(r), t1, t2)
		setups = append(setups, t2.Sub(t0))
		loads = append(loads, t1.Sub(t0))
		builds = append(builds, t2.Sub(t1))
		for _, ph := range ix.Stats().Phases {
			phases[ph.Name] = append(phases[ph.Name], ph.Duration)
		}
		idx = ix
	}
	o.set("setup_s", durationsMedian(setups))
	o.set("index_bytes", float64(idx.Stats().Bytes))

	// Warm-up: one untimed pass over the mix, answers checked.
	o.attempted += int64(len(qs))
	for i, q := range qs {
		if idx.RangeReach(q.v, q.r) != exp[i] {
			o.wrong++
		}
	}
	runtime.GC()

	d := time.Duration(cfg.seconds * float64(time.Second))
	plain := func(_ int, q query) bool { return idx.RangeReach(q.v, q.r) }
	if !cfg.trace {
		w, wrong := sweepLoop(qs, exp, d, plain)
		o.wrong += wrong
		s := w.summary()
		o.attempted += int64(s.samples)
		o.set("qps", s.qps)
		o.set("query_p50_us", s.p50us)
		o.set("query_p99_us", s.p99us)
		o.notef("timed: %d queries, qps %.0f, p50 %.3fus, p99 %.3fus", s.samples, s.qps, s.p50us, s.p99us)
		return nil
	}

	// Traced run: half the window untraced (the overhead baseline and
	// the runtime ledger), half through Explain with spans recorded.
	before := readMem()
	wu, wrong := sweepLoop(qs, exp, d/2, plain)
	after := readMem()
	o.wrong += wrong
	su := wu.summary()
	runtimeReport(o, gcBetween(before, after), int64(su.samples))
	runtime.GC()
	wt, wrong := sweepLoop(qs, exp, d/2, func(i int, q query) bool {
		at := time.Now()
		ok, st := idx.Explain(q.v, q.r)
		led.addEngine(uint64(i), at, &st)
		return ok
	})
	o.wrong += wrong
	st := wt.summary()
	o.attempted += int64(su.samples + st.samples)
	o.set("trace.overhead_frac", 1-ratio(st.qps, su.qps))
	o.notef("untraced qps %.0f, traced qps %.0f", su.qps, st.qps)
	if v := led.link(); v > 0 {
		o.wrong += int64(v)
		o.notef("LEDGER: %d spans outlast their parent", v)
	}
	led.layers().report(o, false)

	var counts engineCounts
	for i, q := range qs {
		ok, st := idx.Explain(q.v, q.r)
		if ok != exp[i] {
			o.wrong++
		}
		counts.add(ok, st)
	}
	counts.report(o)

	o.set("dataset.load_s", durationsMedian(loads))
	o.set("build.total_s", durationsMedian(builds))
	for _, name := range []string{"labeling", "spatial"} {
		o.set("build.phase."+name+"_s", durationsMedian(phases[name]))
	}
	open, err := persistProbe(cfg, idx, qs, exp, led, o)
	if err != nil {
		return err
	}
	o.set("persist.open_ms", open*1e3)
	return writeSpans(cfg, led, o)
}

// persistProbe saves idx as a v2 image, opens it mapped setupReps
// times, checks the mapped index's answers and returns the median open
// time in seconds.
func persistProbe(cfg config, idx *rangereach.Index, qs []query, exp []bool, led *ledger, o *outcome) (float64, error) {
	img := filepath.Join(cfg.workdir, cfg.workload+".rrx")
	if err := idx.SaveFile(img); err != nil {
		return 0, err
	}
	var opens []time.Duration
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		m, err := idx.Network().OpenMapped(img)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		led.add("index.open", setupReq+uint64(setupReps+r), t0, t1)
		opens = append(opens, t1.Sub(t0))
		if r == 0 {
			for i, q := range qs {
				if m.RangeReach(q.v, q.r) != exp[i] {
					o.wrong++
				}
			}
		}
		if err := m.Close(); err != nil {
			return 0, err
		}
	}
	return durationsMedian(opens), nil
}

// writeSpans dumps the traced run's spans next to the other run files.
func writeSpans(cfg config, led *ledger, o *outcome) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", cfg.workload, cfg.seed))
	if err := led.write(path); err != nil {
		return err
	}
	o.notef("spans: %d recorded, written to %s", len(led.spans), path)
	return nil
}
