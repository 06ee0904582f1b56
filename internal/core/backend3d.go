package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/kdtree"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/spatialgrid"
	"repro/internal/trace"
)

// SpatialBackend selects the 3D point index behind 3DReach (Replicate
// policy). The paper notes the R-tree "can be replaced by another
// structure as long as it is able to index the three-dimensional space"
// (§7.2); rrbench's ablation-3d compares the three.
type SpatialBackend int

const (
	// BackendRTree is the paper's choice: an STR-bulk-loaded 3D R-tree.
	BackendRTree SpatialBackend = iota
	// BackendKDTree is a balanced k-d tree (space-oriented partitioning).
	BackendKDTree
	// BackendGrid is a uniform 3D grid.
	BackendGrid
)

// String implements fmt.Stringer.
func (b SpatialBackend) String() string {
	switch b {
	case BackendRTree:
		return "rtree"
	case BackendKDTree:
		return "kdtree"
	case BackendGrid:
		return "grid"
	default:
		return fmt.Sprintf("SpatialBackend(%d)", int(b))
	}
}

// pointIndex3 abstracts "is there any indexed 3D point in R × ∪run?"
// — the only primitive point-based 3DReach needs, where run is the
// query vertex's label set. The span threads the per-backend work
// counters out, labels included; nil disables them.
type pointIndex3 interface {
	AnyInRun(r geom.Rect, run intervals.Set, sp *trace.Span) bool
	MemoryBytes() int64
}

// point3 is the backend-neutral input record.
type point3 struct {
	x, y, z float64
	id      int32
}

// buildPointIndex3 constructs the selected backend over the points. A
// non-sequential pool parallelizes the R-tree STR packing and the k-d
// subtree builds; the grid build stays sequential (one bucketing pass).
// The index is identical either way.
func buildPointIndex3(pts []point3, backend SpatialBackend, fanout int, p *pool.Pool) pointIndex3 {
	switch backend {
	case BackendKDTree:
		kpts := make([]kdtree.Point, len(pts))
		for i, p := range pts {
			kpts[i] = kdtree.Point{X: p.x, Y: p.y, Z: p.z, ID: p.id}
		}
		return kdtreeIndex{kdtree.BuildPool(kpts, 3, p)}
	case BackendGrid:
		gpts := make([]spatialgrid.Point, len(pts))
		for i, p := range pts {
			gpts[i] = spatialgrid.Point{X: p.x, Y: p.y, Z: p.z, ID: p.id}
		}
		return gridIndex{spatialgrid.New(gpts, 0)}
	default:
		entries := make([]rtree.Entry[geom.Box3], len(pts))
		for i, p := range pts {
			entries[i] = rtree.Entry[geom.Box3]{
				Box: geom.Box3FromPoint(geom.Pt3(p.x, p.y, p.z)),
				ID:  p.id,
			}
		}
		t := rtree.BulkLoadPool(entries, fanout, p)
		t.SetLeafBoundBytes(24)
		return rtreeIndex{t}
	}
}

type rtreeIndex struct{ t *rtree.Tree[geom.Box3] }

func (x rtreeIndex) AnyInRun(r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	countRootLabels(x.t, run, sp)
	return rtree.AnyInRun(x.t, r, run, sp)
}

func (x rtreeIndex) MemoryBytes() int64 { return x.t.MemoryBytes() }

// countRootLabels adds to sp the intervals of run that overlap the
// tree's root z-extent — the labels the one-descent kernel carries
// into the tree. Untraced queries skip the two binary searches.
func countRootLabels(t *rtree.Tree[geom.Box3], run intervals.Set, sp *trace.Span) {
	if !sp.Enabled() {
		return
	}
	if root, ok := t.Bounds(); ok {
		sp.AddLabels(len(rtree.ZOverlap(run, root.Min.Z, root.Max.Z)))
	}
}

// anyPerLabel is the ablation backends' run search: they have no run
// kernel, so they search one cuboid per label and count every label
// they search.
func anyPerLabel(r geom.Rect, run intervals.Set, sp *trace.Span, anyInBox func(q geom.Box3) bool) bool {
	for _, iv := range run {
		sp.AddLabels(1)
		if anyInBox(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi))) {
			return true
		}
	}
	return false
}

type kdtreeIndex struct{ t *kdtree.Tree }

func (k kdtreeIndex) AnyInRun(r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	return anyPerLabel(r, run, sp, func(q geom.Box3) bool {
		return !k.t.SearchBox3Traced(q, sp, func(kdtree.Point) bool { return false })
	})
}

func (k kdtreeIndex) MemoryBytes() int64 { return k.t.MemoryBytes() }

type gridIndex struct{ g *spatialgrid.Grid }

func (g gridIndex) AnyInRun(r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	return anyPerLabel(r, run, sp, func(q geom.Box3) bool {
		return !g.g.SearchBox3Traced(q, sp, func(spatialgrid.Point) bool { return false })
	})
}

func (g gridIndex) MemoryBytes() int64 { return g.g.MemoryBytes() }
