package kvstore

import (
	"bytes"
	"slices"
)

// btree is an in-memory B-tree keyed by []byte with []byte values. It backs
// each named table of the store and provides the keyed and ordered access
// the paper gets from Berkeley DB's B-tree access method.
//
// The implementation is a classic CLRS B-tree with minimum degree minDeg:
// every node except the root holds between minDeg−1 and 2·minDeg−1 keys.
// Values are stored alongside keys in every node (no leaf-only storage);
// keys and values are owned by the tree (callers must not mutate slices
// they pass in or receive).
//
// snapshot freezes the tree in O(1) by advancing its generation: a Put or
// Delete writes only nodes of the current one, copying an older node into its
// parent first, so a reader may walk a snapshot while the writer goes on.
type btree struct {
	root *bnode
	size int
	gen  uint64 // generation of the nodes the writer may change in place
}

// minDeg is the minimum degree t. 32 keeps nodes around a cache line count
// that profiles well for the store's key sizes.
const minDeg = 32

const maxKeys = 2*minDeg - 1

type bnode struct {
	keys     [][]byte
	vals     [][]byte
	children []*bnode // nil for leaves
	gen      uint64   // the tree generation that made this node
}

func newBtree() *btree {
	return &btree{root: &bnode{}}
}

func (n *bnode) leaf() bool { return len(n.children) == 0 }

// search returns the index of the first key ≥ k and whether it equals k.
func (n *bnode) search(k []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.keys) && bytes.Equal(n.keys[lo], k) {
		return lo, true
	}
	return lo, false
}

// Get returns the value stored under k.
func (t *btree) Get(k []byte) ([]byte, bool) {
	n := t.root
	for {
		i, ok := n.search(k)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Len returns the number of keys in the tree.
func (t *btree) Len() int { return t.size }

// snapshot returns a read-only copy of the tree as it stands.
func (t *btree) snapshot() *btree {
	snap := *t
	t.gen++
	return &snap
}

// own returns n if the writer may change it in place, else a copy of it in
// the current generation.
func (t *btree) own(n *bnode) *bnode {
	if n.gen == t.gen {
		return n
	}
	return &bnode{keys: slices.Clone(n.keys), vals: slices.Clone(n.vals), children: slices.Clone(n.children), gen: t.gen}
}

// child makes n's child i writable, n being so already, and returns it.
func (t *btree) child(n *bnode, i int) *bnode {
	c := t.own(n.children[i])
	n.children[i] = c
	return c
}

// Put inserts or replaces the value under k.
func (t *btree) Put(k, v []byte) {
	r := t.own(t.root)
	t.root = r
	if len(r.keys) == maxKeys {
		// Grow the tree: split the root.
		newRoot := &bnode{children: []*bnode{r}, gen: t.gen}
		newRoot.splitChild(0)
		t.root = newRoot
		r = newRoot
	}
	if t.insertNonFull(r, k, v) {
		t.size++
	}
}

// splitChild splits the full, writable child i of n around its median key.
// Both halves get arrays of their own length: ascending inserts never refill
// a left half.
func (n *bnode) splitChild(i int) {
	child := n.children[i]
	mid := minDeg - 1
	right := &bnode{
		keys: append([][]byte(nil), child.keys[mid+1:]...),
		vals: append([][]byte(nil), child.vals[mid+1:]...),
		gen:  n.gen,
	}
	if !child.leaf() {
		right.children = append([]*bnode(nil), child.children[mid+1:]...)
		child.children = append([]*bnode(nil), child.children[:mid+1]...)
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = append([][]byte(nil), child.keys[:mid]...)
	child.vals = append([][]byte(nil), child.vals[:mid]...)

	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = upVal
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insertNonFull inserts into a writable node known to be non-full; reports
// whether a new key was added (false on replace).
func (t *btree) insertNonFull(n *bnode, k, v []byte) bool {
	for {
		i, ok := n.search(k)
		if ok {
			n.vals[i] = v
			return false
		}
		if n.leaf() {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = k
			n.vals = append(n.vals, nil)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			return true
		}
		if len(t.child(n, i).keys) == maxKeys {
			n.splitChild(i)
			cmp := bytes.Compare(k, n.keys[i])
			if cmp == 0 {
				n.vals[i] = v
				return false
			}
			if cmp > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes k, reporting whether it was present.
func (t *btree) Delete(k []byte) bool {
	t.root = t.own(t.root)
	if !t.delete(t.root, k) {
		return false
	}
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0] // shrink height
	}
	t.size--
	return true
}

// delete removes k from the writable subtree rooted at n, which is
// guaranteed to have at least minDeg keys unless it is the root (CLRS
// invariant).
func (t *btree) delete(n *bnode, k []byte) bool {
	i, found := n.search(k)
	if n.leaf() {
		if !found {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor or successor, or merge.
		if len(n.children[i].keys) >= minDeg {
			pk, pv := maxEntry(n.children[i])
			n.keys[i], n.vals[i] = pk, pv
			return t.delete(t.child(n, i), pk)
		}
		if len(n.children[i+1].keys) >= minDeg {
			sk, sv := minEntry(n.children[i+1])
			n.keys[i], n.vals[i] = sk, sv
			return t.delete(t.child(n, i+1), sk)
		}
		t.child(n, i)
		n.mergeChildren(i)
		return t.delete(n.children[i], k)
	}
	// Descend, topping up the child to ≥ minDeg keys first.
	child := t.child(n, i)
	if len(child.keys) == minDeg-1 {
		switch {
		case i > 0 && len(n.children[i-1].keys) >= minDeg:
			t.child(n, i-1)
			n.borrowFromLeft(i)
		case i < len(n.children)-1 && len(n.children[i+1].keys) >= minDeg:
			t.child(n, i+1)
			n.borrowFromRight(i)
		default:
			if i == len(n.children)-1 {
				i--
			}
			t.child(n, i)
			n.mergeChildren(i)
		}
		child = n.children[i]
	}
	return t.delete(child, k)
}

func maxEntry(n *bnode) ([]byte, []byte) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1]
}

func minEntry(n *bnode) ([]byte, []byte) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0]
}

// borrowFromLeft rotates one entry from writable child i−1 through the
// separator into writable child i.
func (n *bnode) borrowFromLeft(i int) {
	child, left := n.children[i], n.children[i-1]
	child.keys = append([][]byte{n.keys[i-1]}, child.keys...)
	child.vals = append([][]byte{n.vals[i-1]}, child.vals...)
	n.keys[i-1] = left.keys[len(left.keys)-1]
	n.vals[i-1] = left.vals[len(left.vals)-1]
	left.keys = left.keys[:len(left.keys)-1]
	left.vals = left.vals[:len(left.vals)-1]
	if !child.leaf() {
		child.children = append([]*bnode{left.children[len(left.children)-1]}, child.children...)
		left.children = left.children[:len(left.children)-1]
	}
}

// borrowFromRight rotates one entry from writable child i+1 through the
// separator into writable child i.
func (n *bnode) borrowFromRight(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	n.keys[i] = right.keys[0]
	n.vals[i] = right.vals[0]
	right.keys = right.keys[1:]
	right.vals = right.vals[1:]
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = right.children[1:]
	}
}

// mergeChildren merges child i, separator i and child i+1 into writable
// child i.
func (n *bnode) mergeChildren(i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	child.keys = append(child.keys, right.keys...)
	child.vals = append(child.vals, right.vals...)
	child.children = append(child.children, right.children...)
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange visits entries with from ≤ key < to in key order (nil from =
// start of tree, nil to = end). The visitor returns false to stop early.
func (t *btree) AscendRange(from, to []byte, fn func(k, v []byte) bool) {
	t.ascend(t.root, from, to, fn)
}

func (t *btree) ascend(n *bnode, from, to []byte, fn func(k, v []byte) bool) bool {
	start := 0
	if from != nil {
		start, _ = n.search(from)
	}
	for i := start; i <= len(n.keys); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], from, to, fn) {
				return false
			}
		}
		if i == len(n.keys) {
			break
		}
		if from != nil && bytes.Compare(n.keys[i], from) < 0 {
			continue
		}
		if to != nil && bytes.Compare(n.keys[i], to) >= 0 {
			return false
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	return true
}
