package rtree

// SetLeafBoundBytes overrides the per-leaf-entry bound size used by
// MemoryBytes. The paper's Table 4 distinguishes R-trees over points
// (16/24 bytes in 2D/3D), vertical segments and full boxes; a tree built
// over point data can account for point-sized leaf payloads even though
// the implementation stores a degenerate box. Pass 0 to restore the
// structural size.
func (t *Tree[B]) SetLeafBoundBytes(bytes int) { t.leafBoundBytes = bytes }

// MemoryBytes returns the approximate footprint of the tree, the
// index-size accounting behind Table 4: per node one full bound (16
// bytes per dimension), per leaf entry the (possibly overridden) leaf
// bound payload plus a 4-byte id, and per child reference 8 bytes — the
// child pointer of a pointer-node R-tree. Every node but the root is
// exactly one child reference.
func (t *Tree[B]) MemoryBytes() int64 {
	numNodes := int64(t.NumNodes())
	if numNodes == 0 {
		return 0
	}
	var probe B
	full := 16 * probe.Dims()
	leafBytes := t.leafBoundBytes
	if leafBytes <= 0 {
		leafBytes = full
	}
	return numNodes*int64(full) + int64(t.Len())*int64(leafBytes+4) + (numNodes-1)*8
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree[B]) NumNodes() int { return len(t.nodeMeta) / 2 }
