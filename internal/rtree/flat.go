package rtree

import "fmt"

// FlatMeta carries the scalar shape of a tree through a manifest.
type FlatMeta struct {
	MaxEntries     int
	Height         int
	Size           int
	LeafBoundBytes int
}

// Meta returns the manifest scalars of t.
func (t *Tree[B]) Meta() FlatMeta {
	return FlatMeta{
		MaxEntries:     t.maxEntries,
		Height:         t.height,
		Size:           t.Len(),
		LeafBoundBytes: t.leafBoundBytes,
	}
}

// Raw returns the four arrays for persistence. The slices alias the
// tree's storage and must not be mutated.
func (t *Tree[B]) Raw() (nodeBounds []B, nodeMeta []uint32, entryBounds []B, entryIDs []int32) {
	return t.nodeBounds, t.nodeMeta, t.entryBounds, t.entryIDs
}

// NewFlat assembles a tree from persisted arrays, validating the
// canonical-BFS structure exhaustively so that corrupt data can neither
// panic nor loop a later query (see checkStructure). Bound containment
// — the geometric invariant — is checked separately by Validate.
func NewFlat[B Bound[B]](meta FlatMeta, nodeBounds []B, nodeMeta []uint32, entryBounds []B, entryIDs []int32) (*Tree[B], error) {
	if meta.MaxEntries < 4 || meta.MaxEntries > 1<<20 {
		return nil, fmt.Errorf("rtree: implausible fan-out %d", meta.MaxEntries)
	}
	if meta.Size < 0 || meta.Height < 0 {
		return nil, fmt.Errorf("rtree: negative size %d or height %d", meta.Size, meta.Height)
	}
	if len(entryIDs) != meta.Size {
		return nil, fmt.Errorf("rtree: %d entry ids for size %d", len(entryIDs), meta.Size)
	}
	t := &Tree[B]{
		maxEntries:     meta.MaxEntries,
		height:         meta.Height,
		leafBoundBytes: meta.LeafBoundBytes,
		nodeBounds:     nodeBounds,
		nodeMeta:       nodeMeta,
		entryBounds:    entryBounds,
		entryIDs:       entryIDs,
	}
	if err := t.checkStructure(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkStructure verifies the canonical-BFS shape: array lengths agree;
// walking the nodes level by level, internal child runs start exactly
// where the previous one ended (so every node except the root is
// referenced exactly once, forward only — no cycles, no orphans) and
// leaf entry runs tile the entry arrays the same way; no node exceeds
// the fan-out and no non-root node is empty; each level is all leaves or
// all internal nodes, so every leaf sits at the same depth, which must
// be the stored height; and the leaf runs cover exactly Len() entries.
func (t *Tree[B]) checkStructure() error {
	if len(t.nodeMeta)%2 != 0 {
		return fmt.Errorf("rtree: node meta length %d is odd", len(t.nodeMeta))
	}
	numNodes := len(t.nodeMeta) / 2
	if len(t.nodeBounds) != numNodes {
		return fmt.Errorf("rtree: %d node bounds for %d nodes", len(t.nodeBounds), numNodes)
	}
	size := len(t.entryIDs)
	if len(t.entryBounds) != size {
		return fmt.Errorf("rtree: %d entry bounds for %d entry ids", len(t.entryBounds), size)
	}
	if numNodes == 0 {
		if size != 0 || t.height != 0 {
			return fmt.Errorf("rtree: empty node table with size %d height %d", size, t.height)
		}
		return nil
	}
	nextChild, nextEntry := uint32(1), uint32(0)
	depth := 0
	for lo, hi := uint32(0), uint32(1); ; lo, hi = hi, nextChild {
		depth++
		if lo == hi {
			return fmt.Errorf("rtree: internal nodes at depth %d have no children", depth-2)
		}
		leaf := t.nodeMeta[2*lo+1]&1 == 1
		for i := lo; i < hi; i++ {
			first, meta := t.nodeMeta[2*i], t.nodeMeta[2*i+1]
			count := meta >> 1
			if count == 0 && numNodes > 1 {
				return fmt.Errorf("rtree: empty node %d in a %d-node tree", i, numNodes)
			}
			if int(count) > t.maxEntries {
				return fmt.Errorf("rtree: node %d holds %d, fan-out is %d", i, count, t.maxEntries)
			}
			if (meta&1 == 1) != leaf {
				return fmt.Errorf("rtree: leaves and internal nodes share depth %d; tree is not balanced", depth-1)
			}
			if leaf {
				if first != nextEntry {
					return fmt.Errorf("rtree: leaf %d entries start at %d, want %d", i, first, nextEntry)
				}
				nextEntry += count
				if int(nextEntry) > size {
					return fmt.Errorf("rtree: leaf %d entry run ends at %d, past size %d", i, nextEntry, size)
				}
				continue
			}
			if first != nextChild {
				return fmt.Errorf("rtree: node %d children start at %d, want %d", i, first, nextChild)
			}
			nextChild += count
			if int(nextChild) > numNodes {
				return fmt.Errorf("rtree: node %d child run ends at %d, past %d nodes", i, nextChild, numNodes)
			}
		}
		if leaf {
			break
		}
	}
	if int(nextChild) != numNodes {
		return fmt.Errorf("rtree: %d of %d nodes are reachable", nextChild, numNodes)
	}
	if int(nextEntry) != size {
		return fmt.Errorf("rtree: leaf runs cover %d entries, size is %d", nextEntry, size)
	}
	if depth != t.height {
		return fmt.Errorf("rtree: stored height %d, structure has %d levels", t.height, depth)
	}
	return nil
}
