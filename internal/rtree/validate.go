package rtree

import "fmt"

// Validate deep-checks the tree's invariants and returns a descriptive
// error for the first violation:
//
//   - the canonical-BFS structure of checkStructure: runs tile the
//     arrays, no node exceeds the fan-out, no non-root node is empty,
//     all leaves sit at the stored height, and the leaf entry count
//     equals Len();
//   - every node's bound contains each child's bound (entry bounds in
//     leaves, node bounds in internal nodes).
//
// It runs in O(size) and exists for tests, rrserve -check and the
// post-load validation of persisted indexes.
func (t *Tree[B]) Validate() error {
	if err := t.checkStructure(); err != nil {
		return err
	}
	for i, b := range t.nodeBounds {
		first, meta := t.nodeMeta[2*i], t.nodeMeta[2*i+1]
		end := first + meta>>1
		if meta&1 == 1 {
			for j := first; j < end; j++ {
				if !b.Contains(t.entryBounds[j]) {
					return fmt.Errorf("rtree: leaf %d bound does not contain entry %d (id %d)", i, j, t.entryIDs[j])
				}
			}
			continue
		}
		for c := first; c < end; c++ {
			if !b.Contains(t.nodeBounds[c]) {
				return fmt.Errorf("rtree: node %d bound does not contain child %d", i, c)
			}
		}
	}
	return nil
}
