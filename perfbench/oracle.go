package main

import (
	"fmt"
	"math/rand"
	"runtime"

	rangereach "repro"
)

// oracle precomputes expected answers with SpaReach-BFL, an engine that
// shares no query code with the 3DReach indexes under test, over the
// generator's own network value rather than the text file the timed
// set-up loads. A sample is cross-checked against plain BFS.
type oracle struct {
	bfl, naive *rangereach.Index
}

func newOracle(net *rangereach.Network) (*oracle, error) {
	bfl, err := net.Build(rangereach.SpaReachBFL)
	if err != nil {
		return nil, fmt.Errorf("building the SpaReach-BFL oracle: %w", err)
	}
	naive, err := net.Build(rangereach.Naive)
	if err != nil {
		return nil, fmt.Errorf("building the BFS oracle: %w", err)
	}
	return &oracle{bfl: bfl, naive: naive}, nil
}

func (or *oracle) answer(q query) bool { return or.bfl.RangeReach(q.v, q.r) }

func (or *oracle) answers(qs []query) []bool {
	out := make([]bool, len(qs))
	for i, q := range qs {
		out[i] = or.answer(q)
	}
	return out
}

// naiveSample is how many oracle answers each run re-derives by BFS.
const naiveSample = 48

// crossCheck re-answers a seeded sample of qs by BFS and returns how
// many disagree with exp.
func (or *oracle) crossCheck(qs []query, exp []bool, rng *rand.Rand) int {
	bad := 0
	for i := 0; i < naiveSample && len(qs) > 0; i++ {
		j := rng.Intn(len(qs))
		if or.naive.RangeReach(qs[j].v, qs[j].r) != exp[j] {
			bad++
		}
	}
	return bad
}

// positiveShare is the fraction of true answers.
func positiveShare(exp []bool) float64 {
	n := 0
	for _, e := range exp {
		if e {
			n++
		}
	}
	return ratio(float64(n), float64(len(exp)))
}

// engineCounts are the deterministic work counters of one pass over a
// query set, from the engine profiles Explain returns.
type engineCounts struct {
	queries, positives             int64
	labels, nodes, leaves, entries int64
}

func (c *engineCounts) add(ok bool, qs rangereach.QueryStats) {
	c.queries++
	if ok {
		c.positives++
	}
	c.labels += qs.Labels
	c.nodes += qs.IndexNodes
	c.leaves += qs.IndexLeaves
	c.entries += qs.IndexEntries
}

// report sets the labeling and rtree ledger metrics.
func (c *engineCounts) report(o *outcome) {
	q := float64(c.queries)
	o.set("labeling.labels_per_query", ratio(float64(c.labels), q))
	// Useful work over attempts: positive answers per label inspected.
	o.set("labeling.hit_ratio", ratio(float64(c.positives), float64(c.labels)))
	o.set("rtree.nodes_per_query", ratio(float64(c.nodes), q))
	o.set("rtree.leaves_per_query", ratio(float64(c.leaves), q))
	o.set("rtree.entries_per_query", ratio(float64(c.entries), q))
	o.notef("engine counts over %d queries: labels=%d nodes=%d leaves=%d entries=%d positives=%d",
		c.queries, c.labels, c.nodes, c.leaves, c.entries, c.positives)
}

// gcDelta is the Go runtime's work over an interval.
type gcDelta struct {
	cycles             uint32
	pauseNs, heapInuse uint64
}

func gcBetween(before, after *runtime.MemStats) gcDelta {
	return gcDelta{after.NumGC - before.NumGC, after.PauseTotalNs - before.PauseTotalNs, after.HeapInuse}
}

func (g *gcDelta) add(x gcDelta) {
	g.cycles += x.cycles
	g.pauseNs += x.pauseNs
	g.heapInuse = x.heapInuse
}

// runtimeReport sets the Go runtime ledger over an interval in which
// ops operations completed.
func runtimeReport(o *outcome, g gcDelta, ops int64) {
	o.set("runtime.gc_cycles_per_kop", ratio(float64(g.cycles), float64(ops)/1000))
	o.set("runtime.gc_pause_us_total", float64(g.pauseNs)/1e3)
	o.set("runtime.heap_inuse_bytes", float64(g.heapInuse))
}

func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}
