package rtree

import (
	"strings"
	"testing"

	"repro/internal/geom"
)

func gridEntries(n int) []Entry[geom.Rect] {
	entries := make([]Entry[geom.Rect], n)
	for i := range entries {
		x := float64(i%10) * 10
		y := float64(i/10) * 10
		entries[i] = Entry[geom.Rect]{Box: geom.NewRect(x, y, x+5, y+5), ID: int32(i)}
	}
	return entries
}

func wantValidateErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got: %v", substr, err)
	}
}

// firstLeaf returns the BFS index of the first leaf.
func firstLeaf[B Bound[B]](tr *Tree[B]) int {
	i := 0
	for tr.nodeMeta[2*i+1]&1 == 0 {
		i = int(tr.nodeMeta[2*i])
	}
	return i
}

func TestValidateBulkLoaded(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000} {
		tr := BulkLoad(gridEntries(n), 0)
		if err := tr.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestValidateMBRExcludesEntry(t *testing.T) {
	tr := BulkLoad(gridEntries(100), 4)
	// Move the first leaf's first entry outside the leaf bound, leaving
	// every node bound intact.
	first := tr.nodeMeta[2*firstLeaf(tr)]
	tr.entryBounds[first] = geom.NewRect(-1000, -1000, -999, -999)
	wantValidateErr(t, tr.Validate(), "does not contain entry")
}

func TestValidateMBRExcludesChild(t *testing.T) {
	tr := BulkLoad(gridEntries(1000), 4)
	if tr.Height() < 2 {
		t.Fatal("tree too shallow for the test")
	}
	tr.nodeBounds[0] = geom.NewRect(0, 0, 1, 1)
	wantValidateErr(t, tr.Validate(), "child")
}

func TestValidateSizeMismatch(t *testing.T) {
	tr := BulkLoad(gridEntries(50), 4)
	// An entry no leaf run covers.
	tr.entryBounds = append(tr.entryBounds, geom.NewRect(0, 0, 1, 1))
	tr.entryIDs = append(tr.entryIDs, 50)
	wantValidateErr(t, tr.Validate(), "size")
}

func TestValidateUnbalanced(t *testing.T) {
	// Root 0 over leaf 1 and internal node 2, whose only child is leaf
	// 3: the runs tile the arrays, but the leaves sit at depths 1 and 2.
	r := func(x float64) geom.Rect { return geom.NewRect(x, x, x+1, x+1) }
	tr := &Tree[geom.Rect]{
		maxEntries:  16,
		height:      2,
		nodeBounds:  []geom.Rect{geom.NewRect(0, 0, 3, 3), r(0), r(2), r(2)},
		nodeMeta:    []uint32{1, 2 << 1, 0, 1<<1 | 1, 3, 1 << 1, 1, 1<<1 | 1},
		entryBounds: []geom.Rect{r(0), r(2)},
		entryIDs:    []int32{1, 2},
	}
	wantValidateErr(t, tr.Validate(), "not balanced")
}

func TestValidateEmptyTree(t *testing.T) {
	if err := BulkLoad[geom.Rect](nil, 0).Validate(); err != nil {
		t.Fatal(err)
	}
	tr := BulkLoad[geom.Rect](nil, 0)
	tr.height = 3
	wantValidateErr(t, tr.Validate(), "empty node table")
}
