package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/trace"
)

// rebuild round-trips tr through its persisted form: Raw/Meta → NewFlat.
func rebuild[B Bound[B]](t *testing.T, tr *Tree[B]) *Tree[B] {
	t.Helper()
	nb, nm, eb, ids := tr.Raw()
	f, err := NewFlat[B](tr.Meta(), nb, nm, eb, ids)
	if err != nil {
		t.Fatalf("NewFlat: %v", err)
	}
	return f
}

// TestNewFlatRoundTrip checks Raw/Meta → NewFlat → queries: the tree
// reassembled from its flat arrays must answer every operation exactly
// like the bulk-loaded tree and the brute-force oracle, including the
// trace counters.
func TestNewFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		entries := randomRectEntries(rng, n)
		tree := BulkLoad(append([]Entry[geom.Rect](nil), entries...), 16)
		f := rebuild(t, tree)
		if f.Len() != tree.Len() || f.Height() != tree.Height() {
			t.Fatalf("n=%d: len/height %d/%d, want %d/%d", n, f.Len(), f.Height(), tree.Len(), tree.Height())
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("n=%d: Validate: %v", n, err)
		}
		fb, fok := f.Bounds()
		tb, tok := tree.Bounds()
		if fok != tok || (fok && fb != tb) {
			t.Fatalf("n=%d: Bounds %v/%v, want %v/%v", n, fb, fok, tb, tok)
		}
		var all []int32
		f.All(func(e Entry[geom.Rect]) bool { all = append(all, e.ID); return true })
		if len(all) != n {
			t.Fatalf("n=%d: All visited %d entries", n, len(all))
		}
		for q := 0; q < 50; q++ {
			query := randomRect(rng)
			want := bruteSearch(entries, query)
			if got := treeSearch(f, query); !equalIDs(got, want) {
				t.Fatalf("n=%d query %v: rebuilt %v, brute force %v", n, query, got, want)
			}
			if got := f.Count(query); got != len(want) {
				t.Fatalf("n=%d query %v: Count %d, want %d", n, query, got, len(want))
			}
			if _, ok := f.SearchAny(query); ok != (len(want) > 0) {
				t.Fatalf("n=%d query %v: SearchAny %v, want %v", n, query, ok, len(want) > 0)
			}
			var fs, ts trace.Span
			f.SearchTraced(query, &fs, func(Entry[geom.Rect]) bool { return true })
			tree.SearchTraced(query, &ts, func(Entry[geom.Rect]) bool { return true })
			if fs.Counters != ts.Counters {
				t.Fatalf("n=%d query %v: trace counters %+v, want %+v", n, query, fs.Counters, ts.Counters)
			}
		}
	}
}

// TestNewFlatEarlyStop checks that a callback returning false stops the
// traversal of a tree reassembled from its flat arrays.
func TestNewFlatEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := rebuild(t, BulkLoad(randomRectEntries(rng, 200), 16))
	seen := 0
	done := f.Search(geom.NewRect(0, 0, 100, 100), func(Entry[geom.Rect]) bool {
		seen++
		return seen < 3
	})
	if done || seen != 3 {
		t.Fatalf("early stop: done=%v seen=%d, want false/3", done, seen)
	}
}

// TestNewFlatRejectsCorruption feeds NewFlat systematically damaged
// arrays; each must produce an error, never a panic or an accepted
// inconsistent tree.
func TestNewFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := BulkLoad(randomRectEntries(rng, 300), 16)

	check := func(name string, mutate func(meta *FlatMeta, nodeMeta []uint32)) {
		t.Run(name, func(t *testing.T) {
			meta := base.Meta()
			nb, nm, eb, ids := base.Raw()
			nm = append([]uint32(nil), nm...)
			mutate(&meta, nm)
			if _, err := NewFlat[geom.Rect](meta, nb, nm, eb, ids); err == nil {
				t.Fatal("corrupted arrays accepted")
			}
		})
	}

	check("size-mismatch", func(m *FlatMeta, _ []uint32) { m.Size++ })
	check("height-mismatch", func(m *FlatMeta, _ []uint32) { m.Height++ })
	check("fanout-too-small", func(m *FlatMeta, _ []uint32) { m.MaxEntries = 2 })
	check("fanout-huge", func(m *FlatMeta, _ []uint32) { m.MaxEntries = 1 << 24 })
	check("root-first-nonzero", func(_ *FlatMeta, nm []uint32) { nm[0]++ })
	check("leaf-bit-flip", func(_ *FlatMeta, nm []uint32) { nm[1] ^= 1 })
	check("count-zero", func(_ *FlatMeta, nm []uint32) {
		// Zero out a non-root node's count, breaking the ≥1 rule.
		nm[3] &^= ^uint32(1)
	})
	check("count-overflow", func(m *FlatMeta, nm []uint32) {
		nm[1] = (uint32(m.MaxEntries+1) << 1) | (nm[1] & 1)
	})
	check("run-out-of-order", func(_ *FlatMeta, nm []uint32) {
		// Shift a child run start so runs no longer tile the arrays.
		nm[2]++
	})

	t.Run("length-mismatch", func(t *testing.T) {
		meta := base.Meta()
		nb, nm, eb, ids := base.Raw()
		if _, err := NewFlat[geom.Rect](meta, nb[:len(nb)-1], nm, eb, ids); err == nil {
			t.Fatal("short nodeBounds accepted")
		}
		if _, err := NewFlat[geom.Rect](meta, nb, nm, eb[:len(eb)-1], ids); err == nil {
			t.Fatal("short entryBounds accepted")
		}
		if _, err := NewFlat[geom.Rect](meta, nb, nm, eb, ids[:len(ids)-1]); err == nil {
			t.Fatal("short entryIDs accepted")
		}
		if _, err := NewFlat[geom.Rect](meta, nb, nm[:len(nm)-1], eb, ids); err == nil {
			t.Fatal("odd nodeMeta accepted")
		}
	})

	t.Run("childless-internal-root", func(t *testing.T) {
		// A one-node table whose root claims to be internal: the run
		// check passes vacuously, so only the level walk catches it.
		meta := FlatMeta{MaxEntries: 16, Height: 1}
		if _, err := NewFlat[geom.Rect](meta, []geom.Rect{{}}, []uint32{1, 0}, nil, nil); err == nil {
			t.Fatal("childless internal root accepted")
		}
	})

	t.Run("empty", func(t *testing.T) {
		empty := BulkLoad[geom.Rect](nil, 16)
		nb, nm, eb, ids := empty.Raw()
		f, err := NewFlat[geom.Rect](empty.Meta(), nb, nm, eb, ids)
		if err != nil {
			t.Fatalf("empty flat tree rejected: %v", err)
		}
		if f.Len() != 0 {
			t.Fatalf("empty flat tree has Len %d", f.Len())
		}
		if _, ok := f.Bounds(); ok {
			t.Fatal("empty flat tree reported bounds")
		}
	})
}

// TestFlatMemoryBytes checks the footprint accounting: nonzero, growing
// with the entry count, and equal to the Table 4 formula — per node one
// full bound, per entry bound plus id, per child reference 8 bytes.
func TestFlatMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small := BulkLoad(randomRectEntries(rng, 50), 16)
	big := BulkLoad(randomRectEntries(rng, 5000), 16)
	if small.MemoryBytes() <= 0 || big.MemoryBytes() <= small.MemoryBytes() {
		t.Fatalf("MemoryBytes small=%d big=%d", small.MemoryBytes(), big.MemoryBytes())
	}
	children := 0
	for i := 0; i < big.NumNodes(); i++ {
		if big.nodeMeta[2*i+1]&1 == 0 {
			children += int(big.nodeMeta[2*i+1] >> 1)
		}
	}
	want := int64(big.NumNodes()*32 + big.Len()*(32+4) + children*8)
	if got := big.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if got := rebuild(t, big).MemoryBytes(); got != want {
		t.Fatalf("rebuilt MemoryBytes = %d, want %d", got, want)
	}
}

// TestNewFlatBox3 exercises the 3D instantiation end to end.
func TestNewFlatBox3(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := make([]Entry[geom.Box3], 500)
	for i := range entries {
		x, y, z := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		entries[i] = Entry[geom.Box3]{Box: geom.NewBox3(x, y, z, x+1, y+1, z+1), ID: int32(i)}
	}
	tree := BulkLoad(append([]Entry[geom.Box3](nil), entries...), 16)
	rebuilt := rebuild(t, tree)
	if err := rebuilt.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		x, y, z := rng.Float64()*90, rng.Float64()*90, rng.Float64()*90
		query := geom.NewBox3(x, y, z, x+10, y+10, z+10)
		want := 0
		for _, e := range entries {
			if e.Box.Intersects(query) {
				want++
			}
		}
		if got := rebuilt.Count(query); got != want {
			t.Fatalf("query %d: Count %d, want %d", q, got, want)
		}
	}
}
