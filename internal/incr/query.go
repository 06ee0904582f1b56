package incr

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// qview is the read-only state a RangeReach evaluation needs. Both the
// live Index and its snapshots evaluate through it, so the two paths
// cannot drift.
type qview struct {
	n       int
	comp    []int32
	labels  []intervals.Set
	base    *rtree.Tree[geom.Box3]
	overlay []rtree.Entry[geom.Box3]
	stale   map[int32]struct{}
	grid    *occGrid
}

// rangeReach is the standard 3DReach evaluation over patched state:
// the occupancy grid first (a region with no venues anywhere answers
// false in a few cell reads), then one descent of the base tree for
// the whole label run — skipping tombstoned entries — then one scan of
// the bounded overlay, stabbing each entry's z against the run.
func (q qview) rangeReach(v int, r geom.Rect, sp *trace.Span) bool {
	if v < 0 || v >= q.n {
		panic(fmt.Sprintf("incr: vertex %d out of range [0,%d)", v, q.n))
	}
	if !q.grid.maybe(r) {
		return false
	}
	run := q.labels[q.comp[v]]
	if sp.Enabled() {
		sp.AddLabels(q.rootLabels(run))
	}
	t := sp.Start()
	ok := q.searchBase(r, run, sp)
	if !ok {
		sp.AddEntries(len(q.overlay))
		for i := range q.overlay {
			if rtree.InRun(&q.overlay[i].Box, r, run) {
				ok = true
				break
			}
		}
	}
	sp.End(trace.StageSpatial, t)
	return ok
}

// searchBase runs the rtree kernel over the base tree, skipping
// tombstoned entries when there are any.
func (q qview) searchBase(r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	if len(q.stale) == 0 {
		return rtree.AnyInRun(q.base, r, run, sp)
	}
	return !rtree.SearchRun(q.base, r, run, sp, func(e rtree.Entry[geom.Box3]) bool {
		_, dead := q.stale[e.ID]
		return dead
	})
}

// rootLabels counts the intervals of run that overlap the z-extent of
// everything indexed: the base tree's root joined with the overlay.
func (q qview) rootLabels(run intervals.Set) int {
	ext, ok := q.base.Bounds()
	if !ok {
		ext = geom.EmptyBox3()
	}
	for i := range q.overlay {
		ext = ext.Union(q.overlay[i].Box)
	}
	return len(rtree.ZOverlap(run, ext.Min.Z, ext.Max.Z))
}

func (x *Index) view() qview {
	return qview{
		n:       x.n,
		comp:    x.comp,
		labels:  x.labels,
		base:    x.base,
		overlay: x.overlay,
		stale:   x.stale,
		grid:    x.grid,
	}
}

// RangeReach reports whether vertex v currently reaches a spatial
// vertex intersecting r.
func (x *Index) RangeReach(v int, r geom.Rect) bool {
	return x.RangeReachTraced(v, r, nil)
}

// RangeReachTraced is RangeReach with per-stage instrumentation: label
// intervals visited, base-tree node/leaf/entry counts, and overlay
// entry tests all accumulate into sp.
func (x *Index) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	x.ensure()
	return x.view().rangeReach(v, r, sp)
}
