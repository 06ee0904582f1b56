package core

import (
	"bytes"
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

// TestThreeDReachMemoryBytesPinned fixes MemoryBytes — the figure the
// benchmark reports as index_bytes — for every 3DReach index shape on
// fixed networks, built and after a v2 round trip. The point tree keeps
// its 24-byte leaf entries (a degenerate box stores one corner); box
// trees keep the full 48.
func TestThreeDReachMemoryBytesPinned(t *testing.T) {
	gowalla := func() *dataset.Network { return dataset.GowallaLike(0.05, 11) }
	yelp := func() *dataset.Network { return dataset.YelpLike(0.05, 5) }
	extended := func(net *dataset.Network) *dataset.Network {
		return withExtents(rand.New(rand.NewSource(3)), net)
	}
	for _, tc := range []struct {
		name   string
		net    *dataset.Network
		policy dataset.SCCPolicy
		fanout int
		want   int64
	}{
		{"replicate/gowalla", gowalla(), dataset.Replicate, 0, 65896},
		{"replicate/gowalla/fan8", gowalla(), dataset.Replicate, 8, 71440},
		{"replicate/yelp", yelp(), dataset.Replicate, 0, 58688},
		{"mbr/gowalla", gowalla(), dataset.MBR, 0, 98536},
		{"mbr/yelp/fan8", yelp(), dataset.MBR, 8, 60848},
		{"extents/gowalla", extended(gowalla()), dataset.Replicate, 0, 98536},
		{"extents/yelp", extended(yelp()), dataset.Replicate, 0, 60512},
	} {
		prep := dataset.Prepare(tc.net)
		e := NewThreeDReach(prep, ThreeDOptions{Policy: tc.policy, Fanout: tc.fanout})
		if got := e.MemoryBytes(); got != tc.want {
			t.Errorf("%s: MemoryBytes = %d, want %d", tc.name, got, tc.want)
		}
		var buf bytes.Buffer
		if err := SaveEngine(&buf, e); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(&buf, prep, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Engine.MemoryBytes(); got != tc.want {
			t.Errorf("%s: loaded MemoryBytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
