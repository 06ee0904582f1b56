package rtree

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pool"
)

// sameLayout reports whether two trees have identical scalars and
// arrays — structural identity, not just equal query answers.
func sameLayout[B Bound[B]](a, b *Tree[B]) bool {
	anb, anm, aeb, aid := a.Raw()
	bnb, bnm, beb, bid := b.Raw()
	return a.Meta() == b.Meta() &&
		reflect.DeepEqual(anb, bnb) && reflect.DeepEqual(anm, bnm) &&
		reflect.DeepEqual(aeb, beb) && reflect.DeepEqual(aid, bid)
}

// TestBulkLoadPoolIdentical asserts that parallel STR packing produces a
// structurally identical tree to the sequential bulk load, for 2D rects
// and 3D boxes across fan-outs and sizes.
func TestBulkLoadPoolIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{0, 1, 15, 16, 17, 300, 2000} {
		for _, fanout := range []int{4, 8, 16} {
			entries := randomRectEntries(rng, n)
			seq := BulkLoad(append([]Entry[geom.Rect](nil), entries...), fanout)
			for _, par := range []int{2, 8} {
				got := BulkLoadPool(append([]Entry[geom.Rect](nil), entries...), fanout, pool.New(par))
				if err := got.Validate(); err != nil {
					t.Fatalf("n=%d fanout=%d par=%d: %v", n, fanout, par, err)
				}
				if !sameLayout(got, seq) {
					t.Fatalf("n=%d fanout=%d par=%d: parallel tree differs from sequential", n, fanout, par)
				}
			}
		}
	}
}

func TestBulkLoadPoolIdenticalBox3(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	entries := make([]Entry[geom.Box3], 1500)
	for i := range entries {
		p := geom.Pt3(rng.Float64()*100, rng.Float64()*100, float64(rng.Intn(1000)))
		entries[i] = Entry[geom.Box3]{Box: geom.Box3FromPoint(p), ID: int32(i)}
	}
	seq := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 8)
	for _, par := range []int{2, 8} {
		got := BulkLoadPool(append([]Entry[geom.Box3](nil), entries...), 8, pool.New(par))
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !sameLayout(got, seq) {
			t.Fatalf("par=%d: parallel 3D tree differs from sequential", par)
		}
	}
}
