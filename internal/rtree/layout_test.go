package rtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pool"
)

// layoutDigest hashes the four arrays, little-endian, in Raw order.
func layoutDigest[B Bound[B]](t *testing.T, tr *Tree[B]) string {
	t.Helper()
	h := sha256.New()
	nb, nm, eb, ids := tr.Raw()
	for _, v := range []any{nb, nm, eb, ids} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBulkLoadLayoutPinned pins the exact bulk-load layout of multi-level
// trees — STR tiling, level packing order and BFS numbering — at pool
// sizes 1 and 4. The digests were recorded from the previous
// implementation, which bulk-loaded a pointer-node tree and flattened it
// to these arrays by BFS; the persisted format stores exactly these
// bytes, so a change here is a format change.
func TestBulkLoadLayoutPinned(t *testing.T) {
	t.Run("3d-points", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2025))
		entries := make([]Entry[geom.Box3], 20000)
		for i := range entries {
			p := geom.Pt3(rng.Float64()*1000, rng.Float64()*1000, float64(rng.Intn(50000)))
			entries[i] = Entry[geom.Box3]{Box: geom.Box3FromPoint(p), ID: int32(i)}
		}
		const want = "a907b8de70c2c8ff39f4d2d8396460df4102630437b198f1a2c3ac9b5058f2cd"
		for _, workers := range []int{1, 4} {
			tr := BulkLoadPool(append([]Entry[geom.Box3](nil), entries...), 16, pool.New(workers))
			if tr.Height() != 4 || tr.NumNodes() != 1410 {
				t.Fatalf("workers=%d: height %d, %d nodes; want 4, 1410", workers, tr.Height(), tr.NumNodes())
			}
			if got := layoutDigest(t, tr); got != want {
				t.Fatalf("workers=%d: layout digest %s, want %s", workers, got, want)
			}
		}
	})
	t.Run("2d-rects", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2026))
		entries := make([]Entry[geom.Rect], 20000)
		for i := range entries {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			entries[i] = Entry[geom.Rect]{Box: geom.NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5), ID: int32(i)}
		}
		const want = "dede14e64617b6b6d1e3d42ff379c21c5ee098877cc2b575a80126bf32f2cebd"
		for _, workers := range []int{1, 4} {
			tr := BulkLoadPool(append([]Entry[geom.Rect](nil), entries...), 16, pool.New(workers))
			if tr.Height() != 4 || tr.NumNodes() != 1344 {
				t.Fatalf("workers=%d: height %d, %d nodes; want 4, 1344", workers, tr.Height(), tr.NumNodes())
			}
			if got := layoutDigest(t, tr); got != want {
				t.Fatalf("workers=%d: layout digest %s, want %s", workers, got, want)
			}
		}
	})
}
