// Package rtree implements a read-only in-memory R-tree over 2D
// rectangles or 3D boxes, replacing the Boost R-tree the paper uses
// (§6.1). It backs every spatial index of the library: the 2D point
// index of SpaReach, the 3D point index of 3DReach and the 3D
// vertical-segment index of 3DReach-Rev, as well as the MBR-based
// variants of all three (paper §5).
//
// Construction is Sort-Tile-Recursive (STR) bulk loading straight into
// a structure-of-arrays layout, the same four arrays the flat index
// format persists, so a freshly built, a decoded and a memory-mapped
// tree all run one search kernel. Search supports early termination,
// which RangeReach evaluation relies on: a query stops at the first
// witness.
package rtree

import (
	"math"
	"sort"

	"repro/internal/pool"
	"repro/internal/trace"
)

// Bound abstracts the axis-aligned bounding shapes the tree can index.
// geom.Rect and geom.Box3 implement it. Their in-memory layout (min
// corner, then max corner, float64 per axis) is also their on-disk
// layout, which lets a persisted bound column overlay a []B directly.
type Bound[B any] interface {
	Union(B) B
	Intersects(B) bool
	Contains(B) bool
	Dims() int
	CenterCoord(d int) float64
}

// Entry is a leaf record: a bounding shape plus the caller's identifier
// (in this library, a vertex id or a post-order number).
type Entry[B Bound[B]] struct {
	Box B
	ID  int32
}

// DefaultMaxEntries is the default node fan-out.
const DefaultMaxEntries = 16

// Tree is a read-only R-tree over bounds of type B in structure-of-arrays
// layout. Nodes are numbered in BFS order with node 0 the root; a node's
// children (or a leaf's entries) occupy one contiguous run, so the whole
// tree is four flat arrays that overlay a file section without any
// per-node allocation:
//
//	nodeBounds  numNodes B           — one bound per node
//	nodeMeta    numNodes × 2 uint32  — {first, count<<1 | leafBit}
//	entryBounds Len() B              — leaf entry bounds
//	entryIDs    Len() int32          — leaf entry ids
//
// The canonical BFS layout makes structural validation linear and
// cycle-proof: node i's children all have indexes > i, child runs are
// exactly consecutive, and the arrays' lengths pin every count.
type Tree[B Bound[B]] struct {
	maxEntries int
	height     int
	// leafBoundBytes overrides the per-leaf-entry bound size used by
	// MemoryBytes; see SetLeafBoundBytes.
	leafBoundBytes int

	nodeBounds  []B
	nodeMeta    []uint32
	entryBounds []B
	entryIDs    []int32
}

// BulkLoad builds a tree over the given entries using Sort-Tile-Recursive
// packing. The entries slice is reordered in place. A fan-out of 0
// selects DefaultMaxEntries.
func BulkLoad[B Bound[B]](entries []Entry[B], maxEntries int) *Tree[B] {
	return BulkLoadPool(entries, maxEntries, nil)
}

// BulkLoadPool is BulkLoad with a worker pool: the top-level STR slabs
// tile concurrently and leaf bounds are computed concurrently. A nil or
// sequential pool is exactly BulkLoad. The tree is identical either way:
// slab boundaries are fixed by the (sequential) top-level sort, each slab
// runs the same per-slab code over its own disjoint sub-slice, and the
// leaf groups are concatenated in slab order.
func BulkLoadPool[B Bound[B]](entries []Entry[B], maxEntries int, p *pool.Pool) *Tree[B] {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &Tree[B]{maxEntries: maxEntries}
	if len(entries) == 0 {
		return t
	}
	leaves := strPack(entries, maxEntries, p)
	leafBounds := make([]B, len(leaves))
	leafBound := func(i int) {
		b := leaves[i][0].Box
		for _, e := range leaves[i][1:] {
			b = b.Union(e.Box)
		}
		leafBounds[i] = b
	}
	if p.Sequential() {
		for i := range leaves {
			leafBound(i)
		}
	} else {
		_ = p.ForEach(len(leaves), func(i int) error { leafBound(i); return nil })
	}
	// Pack upper levels until a single root remains. levels[k] holds the
	// bounds of level k's nodes in creation order (level 0 = leaves);
	// orders[k] is level k sorted for packing, parent j of level k+1
	// owning the run orders[k][j*maxEntries:]. Upper levels hold
	// ~1/maxEntries of the nodes below; not worth fanning out.
	levels := [][]B{leafBounds}
	var orders [][]int32
	for len(levels[len(levels)-1]) > 1 {
		order, parents := packLevel(levels[len(levels)-1], maxEntries)
		orders = append(orders, order)
		levels = append(levels, parents)
	}
	t.height = len(levels)
	t.layout(leaves, levels, orders)
	return t
}

// strPack tiles entries into leaf groups of at most maxEntries using the
// STR algorithm, recursing over the dimensions of B. Top-level slabs may
// tile in parallel; each returns its own leaf groups and the results are
// concatenated in slab order, so the output is independent of p.
func strPack[B Bound[B]](entries []Entry[B], maxEntries int, p *pool.Pool) [][]Entry[B] {
	var tile func(es []Entry[B], dim int) [][]Entry[B]
	dims := entries[0].Box.Dims()
	tile = func(es []Entry[B], dim int) [][]Entry[B] {
		sort.Slice(es, func(i, j int) bool {
			return es[i].Box.CenterCoord(dim) < es[j].Box.CenterCoord(dim)
		})
		if dim == dims-1 || len(es) <= maxEntries {
			groups := make([][]Entry[B], 0, (len(es)+maxEntries-1)/maxEntries)
			for i := 0; i < len(es); i += maxEntries {
				end := min(i+maxEntries, len(es))
				groups = append(groups, es[i:end:end])
			}
			return groups
		}
		leafCount := (len(es) + maxEntries - 1) / maxEntries
		slabs := int(math.Ceil(math.Pow(float64(leafCount), 1/float64(dims-dim))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(es) + slabs - 1) / slabs
		var subs [][]Entry[B]
		for i := 0; i < len(es); i += per {
			end := min(i+per, len(es))
			subs = append(subs, es[i:end:end])
		}
		if dim == 0 && !p.Sequential() && len(subs) > 1 {
			results := make([][][]Entry[B], len(subs))
			_ = p.ForEach(len(subs), func(i int) error {
				results[i] = tile(subs[i], dim+1)
				return nil
			})
			var out [][]Entry[B]
			for _, r := range results {
				out = append(out, r...)
			}
			return out
		}
		var out [][]Entry[B]
		for _, sub := range subs {
			out = append(out, tile(sub, dim+1)...)
		}
		return out
	}
	return tile(entries, 0)
}

// packLevel groups a level's nodes into parents of at most maxEntries,
// ordered by the first center coordinate. It returns the sorted order
// (indexes into bounds) and the parents' bounds in creation order.
func packLevel[B Bound[B]](bounds []B, maxEntries int) (order []int32, parents []B) {
	order = make([]int32, len(bounds))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return bounds[order[i]].CenterCoord(0) < bounds[order[j]].CenterCoord(0)
	})
	parents = make([]B, 0, (len(order)+maxEntries-1)/maxEntries)
	for i := 0; i < len(order); i += maxEntries {
		run := order[i:min(i+maxEntries, len(order))]
		b := bounds[run[0]]
		for _, c := range run[1:] {
			b = b.Union(bounds[c])
		}
		parents = append(parents, b)
	}
	return order, parents
}

// layout numbers the packed levels in BFS order from the root down and
// fills the four arrays: each level's nodes, visited in BFS order,
// contribute their child runs to the next level's BFS order.
func (t *Tree[B]) layout(leaves [][]Entry[B], levels [][]B, orders [][]int32) {
	numNodes := 0
	for _, l := range levels {
		numNodes += len(l)
	}
	size := 0
	for _, g := range leaves {
		size += len(g)
	}
	t.nodeBounds = make([]B, 0, numNodes)
	t.nodeMeta = make([]uint32, 0, 2*numNodes)
	t.entryBounds = make([]B, 0, size)
	t.entryIDs = make([]int32, 0, size)

	bfs := []int32{0} // the current level's nodes, in BFS order
	next := uint32(1) // BFS index of the next child run
	for k := len(orders) - 1; k >= 0; k-- {
		order := orders[k]
		below := make([]int32, 0, len(order))
		for _, n := range bfs {
			lo := int(n) * t.maxEntries
			run := order[lo:min(lo+t.maxEntries, len(order))]
			t.nodeBounds = append(t.nodeBounds, levels[k+1][n])
			t.nodeMeta = append(t.nodeMeta, next, uint32(len(run))<<1)
			next += uint32(len(run))
			below = append(below, run...)
		}
		bfs = below
	}
	for _, n := range bfs {
		t.nodeBounds = append(t.nodeBounds, levels[0][n])
		t.nodeMeta = append(t.nodeMeta, uint32(len(t.entryIDs)), uint32(len(leaves[n]))<<1|1)
		for _, e := range leaves[n] {
			t.entryBounds = append(t.entryBounds, e.Box)
			t.entryIDs = append(t.entryIDs, e.ID)
		}
	}
}

// Len returns the number of stored entries.
func (t *Tree[B]) Len() int { return len(t.entryIDs) }

// Height returns the number of levels in the tree (0 when empty).
func (t *Tree[B]) Height() int { return t.height }

// Search calls fn for every entry whose bound intersects query. If fn
// returns false the search stops immediately and Search returns false;
// otherwise it returns true after visiting all intersecting entries.
func (t *Tree[B]) Search(query B, fn func(e Entry[B]) bool) bool {
	return t.SearchTraced(query, nil, fn)
}

// SearchTraced is Search with per-node instrumentation: expanded
// internal nodes, expanded leaves and tested leaf entries accumulate
// into sp. A nil sp makes it exactly Search — the counting hooks reduce
// to one predictable branch per node.
func (t *Tree[B]) SearchTraced(query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	if len(t.nodeBounds) == 0 || !t.nodeBounds[0].Intersects(query) {
		return true
	}
	return t.search(0, query, sp, fn)
}

// search expands node i, whose bound intersects query, visiting
// children in stored order.
func (t *Tree[B]) search(i uint32, query B, sp *trace.Span, fn func(e Entry[B]) bool) bool {
	first, meta := t.nodeMeta[2*i], t.nodeMeta[2*i+1]
	end := first + meta>>1
	if meta&1 == 1 {
		sp.IncLeaf()
		sp.AddEntries(int(end - first))
		for j, b := range t.entryBounds[first:end] {
			if b.Intersects(query) && !fn(Entry[B]{Box: b, ID: t.entryIDs[first+uint32(j)]}) {
				return false
			}
		}
		return true
	}
	sp.IncNode()
	for c := first; c < end; c++ {
		if t.nodeBounds[c].Intersects(query) && !t.search(c, query, sp, fn) {
			return false
		}
	}
	return true
}

// SearchAny returns some entry intersecting query, or ok=false if none
// exists. It is the primitive RangeReach engines use: the query needs a
// single witness.
func (t *Tree[B]) SearchAny(query B) (found Entry[B], ok bool) {
	return t.SearchAnyTraced(query, nil)
}

// SearchAnyTraced is SearchAny with instrumentation (see SearchTraced).
func (t *Tree[B]) SearchAnyTraced(query B, sp *trace.Span) (found Entry[B], ok bool) {
	t.SearchTraced(query, sp, func(e Entry[B]) bool {
		found, ok = e, true
		return false
	})
	return found, ok
}

// Count returns the number of entries intersecting query.
func (t *Tree[B]) Count(query B) int {
	count := 0
	t.Search(query, func(Entry[B]) bool {
		count++
		return true
	})
	return count
}

// All calls fn for every entry in the tree, in leaf order.
func (t *Tree[B]) All(fn func(e Entry[B]) bool) bool {
	for j, b := range t.entryBounds {
		if !fn(Entry[B]{Box: b, ID: t.entryIDs[j]}) {
			return false
		}
	}
	return true
}

// Bounds returns the bounding shape of the whole tree and whether the
// tree is non-empty.
func (t *Tree[B]) Bounds() (B, bool) {
	var zero B
	if len(t.nodeBounds) == 0 {
		return zero, false
	}
	return t.nodeBounds[0], true
}
