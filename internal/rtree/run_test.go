package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/intervals"
	"repro/internal/trace"
)

// runPosts is the z domain of the run tests: post-order numbers 1..runPosts.
const runPosts = 200

// runTreeEntries returns n 3D entries over [0,100)² × [1,runPosts]:
// points at integer posts when boxes is false, otherwise boxes with a
// small x/y extent and either a single post or a short post range.
func runTreeEntries(rng *rand.Rand, n int, boxes bool) []Entry[geom.Box3] {
	entries := make([]Entry[geom.Box3], n)
	for i := range entries {
		x, y := rng.Float64()*100, rng.Float64()*100
		z := float64(1 + rng.Intn(runPosts))
		b := geom.Box3FromPoint(geom.Pt3(x, y, z))
		if boxes {
			z2 := z
			if rng.Intn(2) == 0 {
				z2 = min(z+float64(rng.Intn(8)), runPosts)
			}
			b = geom.NewBox3(x, y, z, x+rng.Float64()*5, y+rng.Float64()*5, z2)
		}
		entries[i] = Entry[geom.Box3]{Box: b, ID: int32(i)}
	}
	return entries
}

// canonicalRun returns a random canonical interval set over the posts:
// sorted, disjoint and non-adjacent.
func canonicalRun(rng *rand.Rand) intervals.Set {
	var s intervals.Set
	for p := int32(1); p <= runPosts; p++ {
		if rng.Intn(4) == 0 {
			s = s.Add(p, min(p+int32(rng.Intn(6)), runPosts))
		}
	}
	return s.Compress()
}

// adjacentRun returns singleton intervals over a random post subset —
// the shape labeling.Options.SkipCompression keeps: sorted and
// disjoint, but adjacent intervals are not merged.
func adjacentRun(rng *rand.Rand) intervals.Set {
	var s intervals.Set
	for p := int32(1); p <= runPosts; p++ {
		if rng.Intn(3) == 0 {
			s = s.Add(p, p)
		}
	}
	return s
}

// perIntervalAny is the reference the kernel replaces: one cuboid
// search per interval.
func perIntervalAny(t *Tree[geom.Box3], r geom.Rect, run intervals.Set, sp *trace.Span) bool {
	for _, iv := range run {
		if _, ok := t.SearchAnyTraced(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi)), sp); ok {
			return true
		}
	}
	return false
}

// perIntervalIDs is the sorted, deduplicated union of the per-interval
// Search results.
func perIntervalIDs(t *Tree[geom.Box3], r geom.Rect, run intervals.Set) []int32 {
	var ids []int32
	for _, iv := range run {
		t.Search(geom.Box3FromRect(r, float64(iv.Lo), float64(iv.Hi)), func(e Entry[geom.Box3]) bool {
			ids = append(ids, e.ID)
			return true
		})
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

func TestRunKernelMatchesPerIntervalSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	runs := map[string]func(*rand.Rand) intervals.Set{
		"canonical": canonicalRun,
		"adjacent":  adjacentRun,
		"empty":     func(*rand.Rand) intervals.Set { return nil },
	}
	for _, fanout := range []int{4, 16, 64} {
		for _, boxes := range []bool{false, true} {
			for _, n := range []int{0, 1, 7, 300, 3000} {
				tr := BulkLoad(runTreeEntries(rng, n, boxes), fanout)
				for name, gen := range runs {
					for range 40 {
						run := gen(rng)
						r := geom.NewRect(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
						checkRunParity(t, tr, r, run)
						if t.Failed() {
							t.Fatalf("fan-out %d, boxes %v, n %d, %s run %v, region %v", fanout, boxes, n, name, run, r)
						}
					}
				}
			}
		}
	}
}

// checkRunParity compares both kernel forms with the per-interval loop
// on one query and checks that the one descent expands no node the
// per-interval searches would not.
func checkRunParity(t *testing.T, tr *Tree[geom.Box3], r geom.Rect, run intervals.Set) {
	t.Helper()
	var one, each trace.Span
	want := perIntervalAny(tr, r, run, &each)
	if got := AnyInRun(tr, r, run, nil); got != want {
		t.Errorf("AnyInRun = %v, per-interval SearchAny = %v", got, want)
	}
	if got := AnyInRun(tr, r, run, &one); got != want {
		t.Errorf("traced AnyInRun = %v, per-interval SearchAny = %v", got, want)
	}
	if !want && (one.IndexNodes > each.IndexNodes || one.IndexLeaves > each.IndexLeaves || one.IndexEntries > each.IndexEntries) {
		t.Errorf("one descent did more work than the per-interval searches: %+v vs %+v", one, each)
	}

	var ids []int32
	if !SearchRun(tr, r, run, nil, func(e Entry[geom.Box3]) bool {
		ids = append(ids, e.ID)
		return true
	}) {
		t.Error("SearchRun reported an early stop its visitor never asked for")
	}
	slices.Sort(ids)
	if wantIDs := perIntervalIDs(tr, r, run); !slices.Equal(ids, wantIDs) {
		t.Errorf("SearchRun visited %v, per-interval Search %v", ids, wantIDs)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("SearchRun visited entry %d twice", ids[i])
		}
	}
	for _, e := range ids {
		if !InRun(&tr.entryBounds[slices.Index(tr.entryIDs, e)], r, run) {
			t.Errorf("visited entry %d fails InRun", e)
		}
	}

	calls := 0
	stopped := !SearchRun(tr, r, run, nil, func(Entry[geom.Box3]) bool {
		calls++
		return false
	})
	if stopped != want || calls > 1 {
		t.Errorf("stopping visitor: stopped %v after %d calls, want stopped %v after ≤1", stopped, calls, want)
	}
}

func TestZOverlapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for range 2000 {
		run := canonicalRun(rng)
		if rng.Intn(2) == 0 {
			run = adjacentRun(rng)
		}
		lo := float64(rng.Intn(runPosts+20)) - 10
		hi := lo + float64(rng.Intn(40))
		var want intervals.Set
		for _, iv := range run {
			if float64(iv.Lo) <= hi && lo <= float64(iv.Hi) {
				want = append(want, iv)
			}
		}
		if got := ZOverlap(run, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("ZOverlap(%v, %g, %g) = %v, want %v", run, lo, hi, got, want)
		}
	}
}

// TestRunKernelNeverPanics feeds runs that break the sorted-disjoint
// contract — unsorted, overlapping, nested, inverted, extreme — and
// non-finite regions. Labels decoded from a mapped index are only
// structurally validated, so the kernel must survive any run; the
// answer itself is unspecified.
func TestRunKernelNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	trees := []*Tree[geom.Box3]{
		BulkLoad[geom.Box3](nil, 4),
		BulkLoad(runTreeEntries(rng, 1, false), 4),
		BulkLoad(runTreeEntries(rng, 500, false), 4),
		BulkLoad(runTreeEntries(rng, 500, true), 16),
	}
	extremes := []int32{math.MinInt32, -1, 0, 1, runPosts / 2, runPosts, math.MaxInt32}
	regions := []geom.Rect{
		geom.NewRect(0, 0, 100, 100),
		{Min: geom.Pt(60, 60), Max: geom.Pt(40, 40)},
		{Min: geom.Pt(math.NaN(), 0), Max: geom.Pt(100, math.NaN())},
		geom.NewRect(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)),
	}
	for _, tr := range trees {
		for range 300 {
			run := make(intervals.Set, rng.Intn(12))
			for i := range run {
				if rng.Intn(3) == 0 {
					run[i] = intervals.Interval{Lo: extremes[rng.Intn(len(extremes))], Hi: extremes[rng.Intn(len(extremes))]}
				} else {
					run[i] = intervals.Interval{Lo: int32(rng.Intn(runPosts)), Hi: int32(rng.Intn(runPosts))}
				}
			}
			for _, r := range regions {
				var sp trace.Span
				AnyInRun(tr, r, run, &sp)
				SearchRun(tr, r, run, nil, func(Entry[geom.Box3]) bool { return true })
				ZOverlap(run, rng.NormFloat64()*runPosts, rng.NormFloat64()*runPosts)
			}
		}
	}
}

func BenchmarkAnyInRun(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	tr := BulkLoad(runTreeEntries(rng, 5000, false), DefaultMaxEntries)
	run := adjacentRun(rng)
	r := geom.NewRect(40, 40, 45, 45)
	b.Run("one-descent", func(b *testing.B) {
		for range b.N {
			AnyInRun(tr, r, run, nil)
		}
	})
	b.Run("per-interval", func(b *testing.B) {
		for range b.N {
			perIntervalAny(tr, r, run, nil)
		}
	})
}
