package rtree

import (
	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// The functions in this file are the 3DReach cuboid kernel. A query
// RangeReach(v, R) asks whether some indexed entry lies in
// R × (∪ of the intervals of L(v)) — R on x/y, the label run on z.
// Instead of one cuboid search per interval, the kernel descends the
// tree once and carries the run down: at every node it keeps only the
// intervals that overlap the node's z-extent, and prunes the node when
// none is left. The run must be sorted by Lo and pairwise disjoint
// (adjacent intervals are fine), which every canonical label set is.
// Any other run never panics, but may be answered wrongly.

// AnyInRun reports whether some entry of t intersects R × ∪run: the
// witness form, stopping at the first hit. Expanded internal nodes,
// expanded leaves and tested leaf entries accumulate into sp as in
// SearchTraced.
func AnyInRun(t *Tree[geom.Box3], r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	return !visitRun(t, 0, min(1, uint32(len(t.nodeBounds))), r, run, sp, nil)
}

// SearchRun calls fn for every entry of t intersecting R × ∪run, each
// entry once, in stored order. If fn returns false the search stops
// and SearchRun returns false; otherwise it returns true. Counters
// accumulate into sp as in AnyInRun.
func SearchRun(t *Tree[geom.Box3], r geom.Rect, run intervals.Set, sp *trace.Span, fn func(e Entry[geom.Box3]) bool) bool {
	return visitRun(t, 0, min(1, uint32(len(t.nodeBounds))), r, run, sp, fn)
}

// visitRun expands the nodes [first, end) against R × ∪run. A nil fn
// stops at the first qualifying entry.
func visitRun(t *Tree[geom.Box3], first, end uint32, r geom.Rect, run intervals.Set, sp *trace.Span, fn func(e Entry[geom.Box3]) bool) bool {
	for c := first; c < end; c++ {
		b := &t.nodeBounds[c]
		if !intersectsXY(b, r) {
			continue
		}
		sub := ZOverlap(run, b.Min.Z, b.Max.Z)
		if len(sub) == 0 {
			continue
		}
		lo, meta := t.nodeMeta[2*c], t.nodeMeta[2*c+1]
		hi := lo + meta>>1
		if meta&1 == 0 {
			sp.IncNode()
			if !visitRun(t, lo, hi, r, sub, sp, fn) {
				return false
			}
			continue
		}
		sp.IncLeaf()
		sp.AddEntries(int(hi - lo))
		es, ids := t.entryBounds[lo:hi], t.entryIDs[lo:hi]
		for j := range es {
			e := &es[j]
			if !intersectsXY(e, r) || !overlapsRun(sub, e.Min.Z, e.Max.Z) {
				continue
			}
			if fn == nil || !fn(Entry[geom.Box3]{Box: *e, ID: ids[j]}) {
				return false
			}
		}
	}
	return true
}

// InRun reports whether box b intersects R × ∪run: the kernel's test
// for one entry, also used to scan entries kept outside a tree.
func InRun(b *geom.Box3, r geom.Rect, run intervals.Set) bool {
	return intersectsXY(b, r) && overlapsRun(run, b.Min.Z, b.Max.Z)
}

// overlapsRun reports whether some interval of run overlaps [zlo, zhi].
func overlapsRun(run intervals.Set, zlo, zhi float64) bool {
	i := firstEndingAtOrAbove(run, zlo)
	return i < len(run) && float64(run[i].Lo) <= zhi
}

// ZOverlap returns the sub-run of run whose intervals overlap
// [zlo, zhi]: two binary searches, so a node's run narrows in
// O(log |run|).
func ZOverlap(run intervals.Set, zlo, zhi float64) intervals.Set {
	i := firstEndingAtOrAbove(run, zlo)
	lo, hi := i, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(run[m].Lo) <= zhi {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return run[i:lo]
}

// firstEndingAtOrAbove returns the index of the first interval of run
// whose Hi is at least z, or len(run).
func firstEndingAtOrAbove(run intervals.Set, z float64) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if float64(run[m].Hi) < z {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// intersectsXY is Box3.Intersects restricted to x and y.
func intersectsXY(b *geom.Box3, r geom.Rect) bool {
	return b.Min.X <= r.Max.X && r.Min.X <= b.Max.X &&
		b.Min.Y <= r.Max.Y && r.Min.Y <= b.Max.Y
}
