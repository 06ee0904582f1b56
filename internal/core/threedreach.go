package core

import (
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/labeling"
	"repro/internal/pool"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// ThreeDReach is the paper's primary contribution (§4.2): the geosocial
// network and its interval-based labeling are modeled inside a
// three-dimensional space whose first two dimensions are the original
// plane and whose third is the post-order domain. Every spatial vertex u
// becomes the 3D point (u.x, u.y, post(u)); a RangeReach(G, v, R) query
// becomes one 3D range query per label [l, h] ∈ L(v) — the cuboid with
// base R spanning [l, h] on the third axis. The query is positive iff
// some cuboid contains a point. All of v's cuboids are answered in one
// descent of the R-tree (rtree.AnyInRun), which carries the sorted
// label run down and drops the intervals that miss each node.
type ThreeDReach struct {
	prep   *dataset.Prepared
	policy dataset.SCCPolicy
	l      *labeling.Labeling

	// tree is the 3D R-tree over (geometry × post); mode says what its
	// entries are and whether a hit is a witness.
	tree *rtree.Tree[geom.Box3]
	mode threeDMode
}

// threeDMode is what the entries of a ThreeDReach tree stand for.
type threeDMode uint8

const (
	// modePoints: the Replicate policy over a point-only network, one
	// degenerate box per spatial vertex. A hit is a witness.
	modePoints threeDMode = iota
	// modeExact: the Replicate policy over a network with extended
	// geometries (paper footnote 1), one exact box per spatial vertex.
	// A hit is a witness.
	modeExact
	// modeMBR: the MBR policy, one member MBR per spatial component. A
	// hit must be confirmed against the component's members.
	modeMBR
)

// ThreeDOptions configures NewThreeDReach and NewThreeDReachRev.
type ThreeDOptions struct {
	// Policy selects the SCC spatial policy (default Replicate).
	Policy dataset.SCCPolicy
	// Fanout is the R-tree fan-out (0 = rtree.DefaultMaxEntries).
	Fanout int
	// Forest is the spanning-forest policy of the labeling.
	Forest graph.ForestPolicy
	// Parallelism bounds the build workers: 0 or 1 builds sequentially,
	// n > 1 parallelizes the labeling and the spatial bulk load
	// internally. The 3D index depends on the labeling's post-order
	// numbers, so the two phases chain rather than overlap. The built
	// engine is identical at any setting.
	Parallelism int
	// Span, when non-nil, accumulates named per-phase build durations.
	Span *trace.BuildSpan
}

// NewThreeDReach builds the point-based 3DReach engine.
func NewThreeDReach(prep *dataset.Prepared, opts ThreeDOptions) *ThreeDReach {
	t := opts.Span.Start()
	l := labeling.Build(prep.DAG, labeling.Options{Forest: opts.Forest, Parallelism: opts.Parallelism})
	opts.Span.End("labeling", t)
	return NewThreeDReachWithLabeling(prep, l, opts)
}

// NewThreeDReachWithLabeling builds the engine around an existing
// labeling of prep.DAG — e.g. one reloaded from disk (see LoadEngine) or
// shared with another engine. The spatial index is rebuilt by bulk load,
// which is cheap relative to labeling construction.
func NewThreeDReachWithLabeling(prep *dataset.Prepared, l *labeling.Labeling, opts ThreeDOptions) *ThreeDReach {
	e := &ThreeDReach{prep: prep, policy: opts.Policy, l: l}
	wp := pool.New(max(opts.Parallelism, 1))
	t := opts.Span.Start()
	defer opts.Span.End("spatial", t)

	var entries []rtree.Entry[geom.Box3]
	if opts.Policy == dataset.MBR {
		// A component's geometry is its member MBR, lifted to its
		// post-order height: the 3D R-tree indexes boxes instead of
		// points (paper §6.2's MBR-based variant).
		e.mode = modeMBR
		for c := range prep.Members {
			if prep.HasSpatial[c] {
				z := float64(l.PostOf(c))
				entries = append(entries, rtree.Entry[geom.Box3]{
					Box: geom.Box3FromRect(prep.CompMBR[c], z, z),
					ID:  int32(c),
				})
			}
		}
	} else {
		// Every spatial vertex becomes (geometry × post): a point for a
		// point vertex, a box for an extended one. Either way an
		// intersecting cuboid is a witness.
		if prep.Net.HasExtents() {
			e.mode = modeExact
		}
		for v, s := range prep.Net.Spatial {
			if s {
				z := float64(l.PostOf(int(prep.CompOf(v))))
				entries = append(entries, rtree.Entry[geom.Box3]{
					Box: geom.Box3FromRect(prep.Net.GeometryOf(v), z, z),
					ID:  int32(v),
				})
			}
		}
	}
	e.tree = rtree.BulkLoadPool(entries, opts.Fanout, wp)
	if e.mode == modePoints {
		// A degenerate box stores one corner per leaf entry.
		e.tree.SetLeafBoundBytes(24)
	}
	return e
}

// Name implements Engine.
func (e *ThreeDReach) Name() string { return "3DReach" }

// RangeReach implements Engine: one descent of the 3D index for the
// cuboids R × [l, h] of every label [l, h] ∈ L(v), stopping at the
// first witness.
func (e *ThreeDReach) RangeReach(v int, r geom.Rect) bool {
	return e.RangeReachTraced(v, r, nil)
}

// RangeReachTraced implements Engine: the labels of the query vertex
// that overlap the index's root z-extent count as inspected, the
// descent accumulates index-node work into the spatial stage, and
// MBR-policy member confirmations into the verify counter.
func (e *ThreeDReach) RangeReachTraced(v int, r geom.Rect, sp *trace.Span) bool {
	t := sp.Start()
	hit := e.descend(r, e.l.Labels[e.prep.CompOf(v)], sp)
	sp.End(trace.StageSpatial, t)
	return hit
}

// descend answers R × ∪run against the 3D tree.
func (e *ThreeDReach) descend(r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	countRootLabels(e.tree, run, sp)
	if e.mode != modeMBR {
		return rtree.AnyInRun(e.tree, r, run, sp)
	}
	// MBR policy: member confirmation runs inside the R-tree descent,
	// so the whole interleaved pass is timed as the spatial stage
	// (stage timings stay disjoint); the member counter still records
	// the verification work.
	return !rtree.SearchRun(e.tree, r, run, sp, func(entry rtree.Entry[geom.Box3]) bool {
		if r.ContainsRect(entry.Box.Rect()) {
			return false
		}
		for _, m := range e.prep.SpatialMembers[entry.ID] {
			sp.IncMember()
			if e.prep.Witness(m, r) {
				return false
			}
		}
		return true
	})
}

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

// MemoryBytes implements Engine: labeling plus the 3D index.
func (e *ThreeDReach) MemoryBytes() int64 { return e.l.MemoryBytes() + e.tree.MemoryBytes() }

// Labeling exposes the underlying labeling for stats reporting.
func (e *ThreeDReach) Labeling() *labeling.Labeling { return e.l }

var _ Engine = (*ThreeDReach)(nil)
