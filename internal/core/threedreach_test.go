package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// TestThreeDReachRangeReachAllocs gates every 3DReach index shape —
// Replicate points, MBR boxes and exact extended geometries — at zero
// allocations per query on a vertex with 100+ labels, over a region
// covering every venue and a point region that misses nearly all.
func TestThreeDReachRangeReachAllocs(t *testing.T) {
	plain := dataset.YelpLike(0.2, 5)
	extended := withExtents(rand.New(rand.NewSource(3)), dataset.YelpLike(0.2, 5))
	for _, tc := range []struct {
		name   string
		net    *dataset.Network
		policy dataset.SCCPolicy
	}{
		{"replicate", plain, dataset.Replicate},
		{"mbr", plain, dataset.MBR},
		{"extents", extended, dataset.Replicate},
	} {
		prep := dataset.Prepare(tc.net)
		e := NewThreeDReach(prep, ThreeDOptions{Policy: tc.policy})
		v := -1
		for u := 0; u < tc.net.NumVertices(); u++ {
			if len(e.l.Labels[prep.CompOf(u)]) >= 100 {
				v = u
				break
			}
		}
		if v < 0 {
			t.Fatalf("%s: no vertex with 100+ labels", tc.name)
		}
		space := tc.net.Space()
		for _, r := range []geom.Rect{space, geom.RectFromPoint(space.Center())} {
			if n := testing.AllocsPerRun(200, func() { e.RangeReach(v, r) }); n != 0 {
				t.Errorf("%s: RangeReach(%d labels, %v): %v allocs/op, want 0", tc.name, len(e.l.Labels[prep.CompOf(v)]), r, n)
			}
		}
	}
}
