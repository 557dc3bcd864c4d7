// Package clampi reimplements CLaMPI (Di Girolamo, Vella, Hoefler,
// IPDPS'17), the transparent software caching layer for MPI RMA the paper
// builds on, including the paper's extension: application-defined scores
// for cached entries that steer victim selection (§III-B-2).
//
// As in the original system, variable-size entries are supported with two
// data structures: a hash table indexing cached entries and an AVL tree
// storing the free regions of the memory buffer reserved for caching
// (§II-F). Both the hash-table size and the buffer capacity are tunable,
// and an adaptive heuristic can resize the hash table by observing misses,
// conflicts and evictions.
//
// The metadata plane is one slab of records addressed by uint32 id — a
// record is an extent of the memory buffer and, while allocated, the entry
// cached in it — plus three arrays of ids and words over it: the hash
// table's lanes and slots, the victim heap with its position index, and the
// compulsory-miss set. It is allocation-free at steady state, a flush
// rewinds it in place, and Reset hands the whole instance to another rank
// (DESIGN.md §2).
package clampi

// avlTree is a balanced tree over free buffer regions ordered by
// (size, offset). It supports the best-fit query the allocator needs: the
// smallest free region of at least a given size. Nodes are recycled through
// an internal pool (grown in slabs), so steady-state insert/remove traffic
// performs no heap allocations.
type avlTree struct {
	root *avlNode
	n    int
	pool *avlNode // free nodes, linked through right
	slab int      // next slab size (doubles up to a cap)
	made int      // nodes allocated so far (MemBytes)
}

type avlNode struct {
	size, off   int
	id          uint32 // the free region's record (0 in bare tests)
	left, right *avlNode
	height      int
}

func (t *avlTree) len() int { return t.n }

func (t *avlTree) newNode(size, off int, id uint32) *avlNode {
	if t.pool == nil {
		if t.slab == 0 {
			t.slab = 32
		}
		nodes := make([]avlNode, t.slab)
		t.made += t.slab
		if t.slab < 1024 {
			t.slab *= 2
		}
		for i := range nodes {
			nodes[i].right = t.pool
			t.pool = &nodes[i]
		}
	}
	n := t.pool
	t.pool = n.right
	*n = avlNode{size: size, off: off, id: id, height: 1}
	return n
}

func (t *avlTree) putNode(n *avlNode) {
	*n = avlNode{right: t.pool}
	t.pool = n
}

// reset returns every node to the pool, leaving an empty tree.
func (t *avlTree) reset() {
	t.poolSubtree(t.root)
	t.root = nil
	t.n = 0
}

func (t *avlTree) poolSubtree(n *avlNode) {
	if n == nil {
		return
	}
	t.poolSubtree(n.left)
	r := n.right
	t.putNode(n)
	t.poolSubtree(r)
}

// less orders regions by (size, offset); offsets are unique because free
// regions are disjoint, so the order is total.
func regionLess(s1, o1, s2, o2 int) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return o1 < o2
}

func height(n *avlNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix(n *avlNode) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func rotateRight(y *avlNode) *avlNode {
	x := y.left
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func rotateLeft(x *avlNode) *avlNode {
	y := x.right
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

func rebalance(n *avlNode) *avlNode {
	fix(n)
	bf := height(n.left) - height(n.right)
	switch {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// insert adds the region (size, off) of record id. Duplicate keys must not
// occur (free regions are disjoint); inserting one panics, exposing
// allocator bugs.
func (t *avlTree) insert(size, off int, id uint32) {
	t.root = t.avlInsert(t.root, size, off, id)
	t.n++
}

func (t *avlTree) avlInsert(n *avlNode, size, off int, id uint32) *avlNode {
	if n == nil {
		return t.newNode(size, off, id)
	}
	switch {
	case regionLess(size, off, n.size, n.off):
		n.left = t.avlInsert(n.left, size, off, id)
	case regionLess(n.size, n.off, size, off):
		n.right = t.avlInsert(n.right, size, off, id)
	default:
		panic("clampi: duplicate free region in AVL tree")
	}
	return rebalance(n)
}

// remove deletes the region (size, off); it reports whether it was present.
// The physically removed node returns to the pool.
func (t *avlTree) remove(size, off int) bool {
	var removed bool
	t.root, removed = t.avlRemove(t.root, size, off)
	if removed {
		t.n--
	}
	return removed
}

func (t *avlTree) avlRemove(n *avlNode, size, off int) (*avlNode, bool) {
	if n == nil {
		return nil, false
	}
	var removed bool
	switch {
	case regionLess(size, off, n.size, n.off):
		n.left, removed = t.avlRemove(n.left, size, off)
	case regionLess(n.size, n.off, size, off):
		n.right, removed = t.avlRemove(n.right, size, off)
	default:
		removed = true
		if n.left == nil {
			r := n.right
			t.putNode(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.putNode(n)
			return l, true
		}
		// Replace with the in-order successor (key and payload).
		s := n.right
		for s.left != nil {
			s = s.left
		}
		n.size, n.off, n.id = s.size, s.off, s.id
		n.right, _ = t.avlRemove(n.right, s.size, s.off)
	}
	return rebalance(n), removed
}

// bestFit returns the smallest region with size >= want, or nil, and
// whether it is the tree's least region (the descent never went right). The
// least region may shrink in place: it stays the least, so neither the order
// nor the shape of the tree changes.
func (t *avlTree) bestFit(want int) (best *avlNode, least bool) {
	least = true
	n := t.root
	for n != nil {
		if n.size >= want {
			best = n
			n = n.left
		} else {
			least = false
			n = n.right
		}
	}
	return best, least
}

// max returns the largest region in the tree, or nil if empty.
func (t *avlTree) max() *avlNode {
	var m *avlNode
	n := t.root
	for n != nil {
		m = n
		n = n.right
	}
	return m
}

// walk visits every region in (size, offset) order.
func (t *avlTree) walk(f func(n *avlNode)) {
	var rec func(n *avlNode)
	rec = func(n *avlNode) {
		if n == nil {
			return
		}
		rec(n.left)
		f(n)
		rec(n.right)
	}
	rec(t.root)
}

// checkBalance verifies AVL invariants (for tests). It returns the number
// of nodes, or -1 if an invariant is violated.
func (t *avlTree) checkBalance() int {
	ok := true
	var rec func(n *avlNode) int
	rec = func(n *avlNode) int {
		if n == nil {
			return 0
		}
		hl, hr := rec(n.left), rec(n.right)
		if hl-hr > 1 || hr-hl > 1 {
			ok = false
		}
		h := hl
		if hr > h {
			h = hr
		}
		if n.height != h+1 {
			ok = false
		}
		if n.left != nil && !regionLess(n.left.size, n.left.off, n.size, n.off) {
			ok = false
		}
		if n.right != nil && !regionLess(n.size, n.off, n.right.size, n.right.off) {
			ok = false
		}
		return h + 1
	}
	rec(t.root)
	if !ok {
		return -1
	}
	count := 0
	t.walk(func(*avlNode) { count++ })
	return count
}
