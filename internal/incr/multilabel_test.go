package incr

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/trace"
)

// multiLabelVertices returns the vertices whose component holds at
// least min label intervals.
func multiLabelVertices(x *Index, min int) []int {
	var vs []int
	for v := 0; v < x.n; v++ {
		if len(x.labels[x.comp[v]]) >= min {
			vs = append(vs, v)
		}
	}
	return vs
}

// TestEquivalenceMultiLabel runs the update-stream equivalence check on
// a fragmented (yelp-like) network, where many vertices hold tens of
// label intervals, so every query exercises the run kernel's
// narrowing. Base venues are moved first until overlay plus tombstones
// sit one entry below the fold threshold; from there a random stream
// of inserts, deletes and moves continues with live tombstones. Every
// checked state must answer like the BFS ground truth and a
// from-scratch build, through the index, a snapshot and the traced
// path.
func TestEquivalenceMultiLabel(t *testing.T) {
	const overlayMin = 24
	rng := rand.New(rand.NewSource(89))
	net := dataset.YelpLike(0.03, 5)
	x := New(dataset.Prepare(net), Options{OverlayMin: overlayMin})
	m := newMirror(net)
	if many := multiLabelVertices(x, 5); len(many) < 50 {
		t.Fatalf("only %d vertices with ≥5 labels; the network does not exercise the multi-label path", len(many))
	}

	bbox := geom.RectFromPoint(net.Points[0])
	for v, s := range net.Spatial {
		if s {
			bbox = bbox.Union(geom.RectFromPoint(net.Points[v]))
		}
	}
	region := func() geom.Rect {
		w := bbox.Width() * rng.Float64() * 0.5
		h := bbox.Height() * rng.Float64() * 0.5
		x0 := bbox.Min.X + rng.Float64()*(bbox.Width()-w)
		y0 := bbox.Min.Y + rng.Float64()*(bbox.Height()-h)
		return geom.NewRect(x0, y0, x0+w, y0+h)
	}

	answers := map[bool]int{}
	check := func(label string) {
		t.Helper()
		if err := x.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", label, err)
		}
		snap := x.Snapshot()
		scratch := New(dataset.Prepare(m.network()), Options{})
		many := multiLabelVertices(x, 5)
		type query struct {
			v int
			r geom.Rect
		}
		var qs []query
		for q := 0; q < 40; q++ {
			v := rng.Intn(len(m.spatial))
			if q%2 == 0 && len(many) > 0 {
				v = many[rng.Intn(len(many))]
			}
			qs = append(qs, query{v, region()})
		}
		// Aim at the overlay: each patched venue's own point, asked from
		// multi-label vertices whose run holds the venue's post past its
		// first interval, so hits only a whole-run overlay stab can find
		// are on the checked path — plus one random multi-label vertex.
		for _, e := range x.overlay {
			z := x.post[x.comp[e.ID]]
			asked := 0
			for _, v := range many {
				if run := x.labels[x.comp[v]]; asked < 3 && !run[:1].ContainsCanonical(z) && run.ContainsCanonical(z) {
					qs = append(qs, query{v, e.Box.Rect()})
					asked++
				}
			}
			if len(many) > 0 {
				qs = append(qs, query{many[rng.Intn(len(many))], e.Box.Rect()})
			}
		}
		for _, q := range qs {
			v, r := q.v, q.r
			want := m.reach(v, r)
			answers[want]++
			var sp trace.Span
			for name, got := range map[string]bool{
				"incremental":  x.RangeReach(v, r),
				"snapshot":     snap.RangeReach(v, r),
				"traced":       snap.RangeReachTraced(v, r, &sp),
				"from-scratch": scratch.RangeReach(v, r),
			} {
				if got != want {
					t.Fatalf("%s: %s RangeReach(%d, %v) = %v, want %v (%d labels)",
						label, name, v, r, got, want, len(x.labels[x.comp[v]]))
				}
			}
		}
	}

	check("fresh")

	// Move distinct base venues (overlay entry + tombstone each) and add
	// one venue (overlay entry only) to land one below the threshold.
	var baseVenues []int
	for v, s := range net.Spatial {
		if s {
			baseVenues = append(baseVenues, v)
		}
	}
	rng.Shuffle(len(baseVenues), func(i, j int) { baseVenues[i], baseVenues[j] = baseVenues[j], baseVenues[i] })
	for _, v := range baseVenues[:(overlayMin-2)/2] {
		p := geom.Pt(bbox.Min.X+rng.Float64()*bbox.Width(), bbox.Min.Y+rng.Float64()*bbox.Height())
		if err := x.MoveVenue(v, p.X, p.Y); err != nil {
			t.Fatal(err)
		}
		m.points[v] = p
	}
	p := geom.Pt(bbox.Min.X+rng.Float64()*bbox.Width(), bbox.Min.Y+rng.Float64()*bbox.Height())
	v := x.AddVenue(p.X, p.Y)
	m.spatial = append(m.spatial, true)
	m.points = append(m.points, p)
	// Wire the new venue under a multi-label vertex so the overlay scan
	// has a reachable entry to find.
	from := multiLabelVertices(x, 5)[0]
	if err := x.AddEdge(from, v); err != nil {
		t.Fatal(err)
	}
	m.edges[[2]int{from, v}] = true

	s := x.Stats()
	if s.Folds != 0 || s.OverlayLen+s.StaleLen != overlayMin-1 || s.StaleLen == 0 {
		t.Fatalf("want overlay+tombstones one below the fold threshold %d with no fold yet, got %+v", overlayMin, s)
	}
	check("one below the fold threshold")

	for step := 0; step < 60; step++ {
		applyRandomOp(t, rng, x, m, nil)
		if step%10 == 9 {
			check("stream")
		}
	}
	if s := x.Stats(); s.StaleLen == 0 && s.Folds == 0 {
		t.Fatalf("stream ended with no tombstones and no fold: %+v", s)
	}
	check("end of stream")
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("checked answers are one-sided: %v", answers)
	}
}

// TestSnapshotRangeReachAllocs gates the snapshot query path at zero
// allocations on a vertex with 100+ labels, with live tombstones and a
// non-empty overlay, so the kernel visitor and the overlay stab are
// both on the measured path.
func TestSnapshotRangeReachAllocs(t *testing.T) {
	net := dataset.YelpLike(0.2, 5)
	x := New(dataset.Prepare(net), Options{})
	many := multiLabelVertices(x, 100)
	if len(many) == 0 {
		t.Fatal("no vertex with 100+ labels")
	}
	for v, s := range net.Spatial {
		if s {
			if err := x.MoveVenue(v, net.Points[v].X, net.Points[v].Y); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	snap := x.Snapshot()
	if len(snap.q.stale) == 0 || len(snap.q.overlay) == 0 {
		t.Fatal("snapshot has no tombstone or overlay entry")
	}
	b, _ := x.base.Bounds()
	regions := []geom.Rect{b.Rect(), geom.NewRect(b.Min.X, b.Min.Y, b.Min.X, b.Min.Y)}
	for _, r := range regions {
		if n := testing.AllocsPerRun(200, func() { snap.RangeReach(many[0], r) }); n != 0 {
			t.Errorf("Snapshot.RangeReach(%d labels, %v): %v allocs/op, want 0", len(x.labels[x.comp[many[0]]]), r, n)
		}
	}
}
