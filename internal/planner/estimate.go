// Package planner implements the cost-based adaptive query planner
// behind the Auto method: per-query routing across a set of
// complementary RangeReach engines. The paper's experiments (§6) show
// that no single method dominates — SocReach wins when the query
// vertex's descendant set is small, 3DReach-Rev on small or selective
// regions, and the spatial-first SpaReach variants on regions with few
// candidates — so a server facing mixed workloads should pick the
// winning engine per query instead of pinning one at build time.
//
// The planner is two-staged:
//
//  1. A static cost model. Cheap estimators computed at build time — a
//     spatial histogram over a grid partitioning (for the region
//     selectivity |P ∩ R|) and the per-vertex interval mass Σ(post−l+1)
//     of the labeling (the exact descendant count |D(v)|) — feed a
//     linear per-engine cost model cost = coef · (1 + work), whose
//     per-unit coefficients are calibrated by a microbenchmark at build.
//  2. An online feedback loop. After every routed query the observed
//     wall-clock time updates the chosen engine's coefficient through an
//     exponential moving average (optionally with ε-greedy exploration
//     so rarely-chosen engines keep fresh coefficients), so the model
//     self-corrects on the real workload.
package planner

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/labeling"
)

// histLevels sizes the estimator's grid hierarchy: level 0 holds
// 2^(histLevels-1) = 64 cells per axis, enough resolution for the
// paper's 1–20% region extents while the prefix table stays ~34KB.
const histLevels = 7

// Estimator holds the build-time statistics the cost model consumes:
// a spatial histogram with prefix sums for O(1) region-selectivity
// estimates, and per-component descendant masses from the forward
// interval labeling.
type Estimator struct {
	hier   *grid.Hierarchy
	side   int32
	prefix []float64 // (side+1)×(side+1) summed-area table of cell counts

	totalSpatial float64
	logP         float64 // log2(2 + |P|), the index-descent work unit

	comp []int32   // original vertex -> component (shared with Prepared)
	mass []float64 // per component: |D(c)| = Σ(hi−lo+1) over L(c)
}

// NewEstimator derives the estimator from a prepared network and its
// forward interval labeling. The labeling is only read; it is typically
// the same one the SocReach / SpaReach-INT members are built on.
func NewEstimator(prep *dataset.Prepared, fwd *labeling.Labeling) *Estimator {
	h := grid.NewHierarchy(prep.Net.Space(), histLevels)
	side := h.SideCells(0)
	e := &Estimator{
		hier: h,
		side: side,
		comp: prep.Comp,
		mass: make([]float64, prep.NumComponents()),
	}

	counts := make([]float64, int(side)*int(side))
	for v, s := range prep.Net.Spatial {
		if !s {
			continue
		}
		c := h.CellAt(prep.Net.Points[v], 0)
		counts[int(c.X)*int(side)+int(c.Y)]++
		e.totalSpatial++
	}
	e.logP = math.Log2(2 + e.totalSpatial)

	// Summed-area table: prefix[(x)*(side+1)+y] = Σ counts over cells
	// [0,x) × [0,y), making any cell-rectangle sum four lookups.
	w := int(side) + 1
	e.prefix = make([]float64, w*w)
	for x := 0; x < int(side); x++ {
		var row float64
		for y := 0; y < int(side); y++ {
			row += counts[x*int(side)+y]
			e.prefix[(x+1)*w+y+1] = e.prefix[x*w+y+1] + row
		}
	}

	for c := 0; c < prep.NumComponents(); c++ {
		e.mass[c] = float64(fwd.DescendantCount(c))
	}
	return e
}

// cellRectSum sums the histogram over the inclusive cell rectangle
// [x0,x1]×[y0,y1] in O(1) via the summed-area table.
func (e *Estimator) cellRectSum(x0, y0, x1, y1 int32) float64 {
	if x1 < x0 || y1 < y0 {
		return 0
	}
	w := int(e.side) + 1
	return e.prefix[int(x1+1)*w+int(y1+1)] -
		e.prefix[int(x0)*w+int(y1+1)] -
		e.prefix[int(x1+1)*w+int(y0)] +
		e.prefix[int(x0)*w+int(y0)]
}

// RegionBounds returns histogram-derived lower and upper bounds on
// |P ∩ R|: lo sums the cells fully contained in r (every point of such
// a cell witnesses r), hi sums every cell r touches (no point outside
// those cells can lie in r). The exact count always satisfies
// lo ≤ exact ≤ hi; the gap is the boundary ring of the region.
func (e *Estimator) RegionBounds(r geom.Rect) (lo, hi float64) {
	if e.totalSpatial == 0 || !r.Valid() || !r.Intersects(e.hier.Space()) {
		return 0, 0
	}
	cLo := e.hier.CellAt(r.Min, 0)
	cHi := e.hier.CellAt(r.Max, 0)
	hi = e.cellRectSum(cLo.X, cLo.Y, cHi.X, cHi.Y)

	// A boundary row/column is fully covered only when r extends past
	// the cell's near edge (clamping can make that true at the space
	// boundary); otherwise the inner rectangle starts one cell in.
	ix0, iy0, ix1, iy1 := cLo.X, cLo.Y, cHi.X, cHi.Y
	if r.Min.X > e.hier.Rect(grid.Cell{Level: 0, X: cLo.X, Y: cLo.Y}).Min.X {
		ix0++
	}
	if r.Min.Y > e.hier.Rect(grid.Cell{Level: 0, X: cLo.X, Y: cLo.Y}).Min.Y {
		iy0++
	}
	if r.Max.X < e.hier.Rect(grid.Cell{Level: 0, X: cHi.X, Y: cHi.Y}).Max.X {
		ix1--
	}
	if r.Max.Y < e.hier.Rect(grid.Cell{Level: 0, X: cHi.X, Y: cHi.Y}).Max.Y {
		iy1--
	}
	lo = e.cellRectSum(ix0, iy0, ix1, iy1)
	return lo, hi
}

// RegionCount estimates |P ∩ R|, the number of spatial vertices inside
// the region: the midpoint of RegionBounds.
func (e *Estimator) RegionCount(r geom.Rect) float64 {
	lo, hi := e.RegionBounds(r)
	return (lo + hi) / 2
}

// DescendantMass returns |D(v)| for the original vertex v — the exact
// descendant count of its component, precomputed from the labeling's
// interval mass Σ(hi−lo+1).
func (e *Estimator) DescendantMass(v int) float64 { return e.mass[e.comp[v]] }

// TotalSpatial returns |P|.
func (e *Estimator) TotalSpatial() float64 { return e.totalSpatial }

// LogP returns log2(2+|P|), the tree-descent work unit of the model.
func (e *Estimator) LogP() float64 { return e.logP }

// MemoryBytes returns the estimator's footprint (prefix table plus the
// per-component arrays; the component map is shared with the network).
func (e *Estimator) MemoryBytes() int64 {
	return int64(8*len(e.prefix) + 8*len(e.mass))
}
