// Package btree implements an in-memory B-tree with user-supplied ordering
// and O(1) copy-on-write cloning.
//
// It is the storage structure behind sqldb's tables and indexes. Keys are
// kept in sorted order, so equality lookups, range scans and ordered
// iteration are all O(log n + k). Clone returns a new tree sharing all nodes
// with the original; each tree copies a node the first time it mutates it,
// so a clone costs O(1) and mutations cost an extra O(log n) node copies
// amortized. A single tree is not safe for concurrent mutation (sqldb
// serializes writers above this layer), but any number of goroutines may
// read a tree concurrently with mutations of its clones, provided the tree
// itself is no longer mutated after cloning — the discipline sqldb's MVCC
// roots follow.
//
// Fan-out is per tree: New uses DefaultDegree, tuned for read-mostly maps;
// NewDegree lets write-heavy trees (sqldb's secondary indexes) pick a small
// degree so each copy-on-write path copy moves fewer bytes. FromSorted builds
// a packed tree from already-sorted input in O(n), the boot path of every
// index sqldb restores or backfills.
package btree

// DefaultDegree is the minimum number of children of an internal node for
// trees built with New. Nodes hold between degree-1 and 2*degree-1 items.
// 32 keeps nodes around a cache line multiple without deep trees for
// million-row tables.
const DefaultDegree = 32

// cow is a copy-on-write ownership token. Every node records the token of
// the tree that created (or last copied) it; a tree may mutate a node in
// place only when the tokens match, otherwise it works on a private copy.
type cow struct{ _ byte }

// Tree is a B-tree mapping keys of type K to values of type V.
// The zero value is not usable; construct with New or NewDegree.
type Tree[K, V any] struct {
	less func(a, b K) bool
	root *node[K, V]
	size int
	cow  *cow

	// maxItems/minItems derive from the tree's degree and travel through
	// Clone, so every version of a tree splits and merges identically.
	maxItems int
	minItems int
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	cow *cow
	// itemsCow is the ownership token for the items slice specifically: a
	// path copy of an interior node shares the source's items array (the
	// separators only change on a split, merge or rotation, which are rare
	// next to plain descents) and copies it lazily via ownItems the first
	// time they actually change. Leaves always copy — reaching a leaf means
	// mutating it. This matters because the items array is ~90% of an
	// interior node's bytes; sharing it makes an interior path copy cost a
	// node header plus a child-pointer slice instead of a full node.
	itemsCow *cow
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
}

// New returns an empty tree of DefaultDegree ordered by less.
func New[K, V any](less func(a, b K) bool) *Tree[K, V] {
	return NewDegree[K, V](DefaultDegree, less)
}

// NewDegree returns an empty tree ordered by less whose nodes have between
// degree and 2*degree children (degree-1 to 2*degree-1 items). Smaller
// degrees copy fewer bytes per copy-on-write mutation at the cost of a
// deeper tree; degree must be at least 2.
func NewDegree[K, V any](degree int, less func(a, b K) bool) *Tree[K, V] {
	if degree < 2 {
		panic("btree: degree must be at least 2")
	}
	c := &cow{}
	return &Tree[K, V]{
		less:     less,
		root:     &node[K, V]{cow: c, itemsCow: c},
		cow:      c,
		maxItems: 2*degree - 1,
		minItems: degree - 1,
	}
}

// FromSorted returns a tree of the given degree holding keys[i] → vals[i],
// built bottom-up in O(n) with no comparisons. keys must be strictly
// ascending under less; vals may be nil, which stores the zero V under every
// key. The slices are only read: the tree copies what it keeps.
//
// Each level is cut into the fewest nodes that can hold it and its items are
// dealt evenly across them, so every node is as full as that node count
// allows (leaves of a large tree sit within one item of full) and — because
// n items over k >= 2 nodes with n >= (k-1)(maxItems+1) leave each node at
// least maxItems/2 >= minItems — every non-root node satisfies the occupancy
// invariant Delete's rebalancing relies on, with no short tail to patch up.
// Every node carries the new tree's ownership token.
func FromSorted[K, V any](degree int, less func(a, b K) bool, keys []K, vals []V) *Tree[K, V] {
	if vals != nil && len(vals) != len(keys) {
		panic("btree: FromSorted with mismatched keys and vals")
	}
	t := NewDegree[K, V](degree, less)
	if len(keys) == 0 {
		return t
	}
	t.size = len(keys)
	nodes, seps := t.packLevel(len(keys), func(i int) item[K, V] {
		it := item[K, V]{key: keys[i]}
		if vals != nil {
			it.val = vals[i]
		}
		return it
	}, nil)
	for len(nodes) > 1 {
		below := seps
		nodes, seps = t.packLevel(len(below), func(i int) item[K, V] { return below[i] }, nodes)
	}
	t.root = nodes[0]
	return t
}

// packLevel builds one level of a bulk-loaded tree from its n items in order
// (at(i) yields the i'th) and, above the leaves, the n+1 nodes of the level
// below. It returns the level's nodes and the items promoted between them.
func (t *Tree[K, V]) packLevel(n int, at func(i int) item[K, V], kids []*node[K, V]) ([]*node[K, V], []item[K, V]) {
	k := (n + 1 + t.maxItems) / (t.maxItems + 1) // ceil((n+1) / (maxItems+1))
	stored := n - (k - 1)                        // the rest separate the k nodes
	nodes := make([]*node[K, V], 0, k)
	seps := make([]item[K, V], 0, k-1)
	next := 0
	for j := 0; j < k; j++ {
		cnt := stored / k
		if j < stored%k {
			cnt++
		}
		nd := &node[K, V]{cow: t.cow, itemsCow: t.cow, items: make([]item[K, V], cnt)}
		for x := range nd.items {
			nd.items[x] = at(next)
			next++
		}
		if kids != nil {
			nd.children = append(make([]*node[K, V], 0, cnt+1), kids[:cnt+1]...)
			kids = kids[cnt+1:]
		}
		nodes = append(nodes, nd)
		if j < k-1 {
			seps = append(seps, at(next))
			next++
		}
	}
	return nodes, seps
}

// Clone returns a copy of the tree in O(1): both trees share every node
// until one of them writes. The clone carries a fresh ownership token, so
// its first mutation along any path copies the shared nodes it touches.
// After Clone, the original must not be mutated if the clone (or readers of
// the original) are still live; sqldb guarantees this by never mutating a
// committed root.
func (t *Tree[K, V]) Clone() *Tree[K, V] {
	return &Tree[K, V]{
		less: t.less, root: t.root, size: t.size, cow: &cow{},
		maxItems: t.maxItems, minItems: t.minItems,
	}
}

// mutable returns n if this tree owns it, otherwise a private copy stamped
// with this tree's token. Callers must store the result back into the
// parent (or the root) before mutating it. An interior copy shares the
// source's items array — the source belongs to an earlier, now-immutable
// generation, so sharing is safe until this tree mutates the separators, at
// which point ownItems copies them. A leaf copy takes its items eagerly.
func (t *Tree[K, V]) mutable(n *node[K, V]) *node[K, V] {
	if n.cow == t.cow {
		return n
	}
	cp := &node[K, V]{cow: t.cow}
	if n.leaf() {
		// Size the copy by occupancy, not by the source's capacity: nodes
		// sit around 2/3 full on average, and full-capacity leaf copies are
		// the dominant allocation of a copy-on-write mutation. A small
		// headroom keeps the common insert-after-copy from growing the
		// slice again immediately.
		c := len(n.items) + 4
		if c > t.maxItems {
			c = t.maxItems
		}
		cp.itemsCow = t.cow
		cp.items = append(make([]item[K, V], 0, c), n.items...)
		return cp
	}
	cp.itemsCow = n.itemsCow
	cp.items = n.items
	cc := len(n.children) + 4
	if cc > t.maxItems+1 {
		cc = t.maxItems + 1
	}
	cp.children = append(make([]*node[K, V], 0, cc), n.children...)
	return cp
}

// ownItems makes n's items array private to this tree (copying it if it is
// still shared with an earlier generation) so separators can be mutated in
// place. n itself must already be mutable.
func (t *Tree[K, V]) ownItems(n *node[K, V]) {
	if n.itemsCow == t.cow {
		return
	}
	c := len(n.items) + 4
	if c > t.maxItems {
		c = t.maxItems
	}
	n.items = append(make([]item[K, V], 0, c), n.items...)
	n.itemsCow = t.cow
}

// clearItems zeroes vacated item slots so shrunk nodes do not pin deleted
// keys and values (Rows, strings) for as long as the node stays reachable
// from a published MVCC root.
func clearItems[K, V any](s []item[K, V], from, to int) {
	var zero item[K, V]
	for i := from; i < to; i++ {
		s[i] = zero
	}
}

// clearChildren zeroes vacated child-pointer slots; a stale pointer beyond
// len would otherwise keep an entire detached subtree alive.
func clearChildren[K, V any](s []*node[K, V], from, to int) {
	for i := from; i < to; i++ {
		s[i] = nil
	}
}

// Len reports the number of items stored in the tree.
func (t *Tree[K, V]) Len() int { return t.size }

func (n *node[K, V]) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item in n not less than key, and
// whether that item's key equals key (i.e. neither orders before the other).
func (t *Tree[K, V]) find(n *node[K, V], key K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.less(n.items[mid].key, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && !t.less(key, n.items[lo].key) {
		return lo, true
	}
	return lo, false
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for {
		i, ok := t.find(n, key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set inserts key/val, replacing any existing item under an equal key — the
// stored key as well as the value, so a key that carries more than its
// ordering (sqldb's index entries point at the row they index) never
// outlives the Set that superseded it. It reports whether an existing item
// was replaced.
func (t *Tree[K, V]) Set(key K, val V) bool {
	t.root = t.mutable(t.root)
	if len(t.root.items) == t.maxItems {
		old := t.root
		t.root = &node[K, V]{cow: t.cow, itemsCow: t.cow, children: []*node[K, V]{old}}
		t.splitChild(t.root, 0)
	}
	replaced := t.insertNonFull(t.root, key, val)
	if !replaced {
		t.size++
	}
	return replaced
}

// insertNonFull descends from n (which the caller has made mutable and
// non-full) to a leaf, copying shared nodes along the way.
func (t *Tree[K, V]) insertNonFull(n *node[K, V], key K, val V) bool {
	for {
		i, ok := t.find(n, key)
		if ok {
			t.ownItems(n)
			n.items[i] = item[K, V]{key: key, val: val}
			return true
		}
		if n.leaf() {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key: key, val: val}
			return false
		}
		if len(n.children[i].items) == t.maxItems {
			t.splitChild(n, i)
			// The promoted separator may equal or order before key.
			if !t.less(key, n.items[i].key) {
				if !t.less(n.items[i].key, key) {
					n.items[i] = item[K, V]{key: key, val: val}
					return true
				}
				i++
			}
		}
		n.children[i] = t.mutable(n.children[i])
		n = n.children[i]
	}
}

// splitChild splits the full child at index i of n, promoting its median
// item into n. n must be mutable.
func (t *Tree[K, V]) splitChild(n *node[K, V], i int) {
	n.children[i] = t.mutable(n.children[i])
	child := n.children[i]
	mid := t.maxItems / 2
	median := child.items[mid]

	right := &node[K, V]{cow: t.cow, itemsCow: t.cow}
	right.items = append(make([]item[K, V], 0, mid+4), child.items[mid+1:]...)
	if child.itemsCow == t.cow {
		clearItems(child.items, mid, len(child.items))
		child.items = child.items[:mid]
	} else {
		// Shared with an earlier generation: take the left half directly
		// instead of copying all items only to truncate them.
		child.items = append(make([]item[K, V], 0, mid+4), child.items[:mid]...)
		child.itemsCow = t.cow
	}
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		clearChildren(child.children, mid+1, len(child.children))
		child.children = child.children[:mid+1]
	}

	t.ownItems(n)
	n.items = append(n.items, item[K, V]{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	t.root = t.mutable(t.root)
	deleted := t.delete(t.root, key)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if deleted {
		t.size--
	}
	return deleted
}

// delete removes key from the subtree rooted at n; n must be mutable.
func (t *Tree[K, V]) delete(n *node[K, V], key K) bool {
	i, found := t.find(n, key)
	if n.leaf() {
		if !found {
			return false
		}
		copy(n.items[i:], n.items[i+1:])
		clearItems(n.items, len(n.items)-1, len(n.items))
		n.items = n.items[:len(n.items)-1]
		return true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete it there.
		if left := n.children[i]; len(left.items) > t.minItems {
			pred := t.max(left)
			t.ownItems(n)
			n.items[i] = pred
			n.children[i] = t.mutable(left)
			return t.delete(n.children[i], pred.key)
		}
		if right := n.children[i+1]; len(right.items) > t.minItems {
			succ := t.min(right)
			t.ownItems(n)
			n.items[i] = succ
			n.children[i+1] = t.mutable(right)
			return t.delete(n.children[i+1], succ.key)
		}
		t.mergeChildren(n, i)
		return t.delete(n.children[i], key)
	}
	// Descend, topping up the child if it is minimal.
	if len(n.children[i].items) == t.minItems {
		i = t.fixChild(n, i)
	}
	n.children[i] = t.mutable(n.children[i])
	return t.delete(n.children[i], key)
}

func (t *Tree[K, V]) max(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (t *Tree[K, V]) min(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// fixChild ensures n.children[i] has more than minItems items, borrowing
// from a sibling or merging. It returns the (possibly shifted) child index.
// n must be mutable; the child and any touched sibling are made mutable.
func (t *Tree[K, V]) fixChild(n *node[K, V], i int) int {
	n.children[i] = t.mutable(n.children[i])
	child := n.children[i]
	if i > 0 && len(n.children[i-1].items) > t.minItems {
		// Rotate right: left sibling's last item -> separator -> child front.
		n.children[i-1] = t.mutable(n.children[i-1])
		left := n.children[i-1]
		t.ownItems(n)
		t.ownItems(child)
		t.ownItems(left)
		child.items = append(child.items, item[K, V]{})
		copy(child.items[1:], child.items)
		child.items[0] = n.items[i-1]
		n.items[i-1] = left.items[len(left.items)-1]
		clearItems(left.items, len(left.items)-1, len(left.items))
		left.items = left.items[:len(left.items)-1]
		if !child.leaf() {
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = left.children[len(left.children)-1]
			clearChildren(left.children, len(left.children)-1, len(left.children))
			left.children = left.children[:len(left.children)-1]
		}
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > t.minItems {
		// Rotate left.
		n.children[i+1] = t.mutable(n.children[i+1])
		right := n.children[i+1]
		t.ownItems(n)
		t.ownItems(child)
		t.ownItems(right)
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		copy(right.items, right.items[1:])
		clearItems(right.items, len(right.items)-1, len(right.items))
		right.items = right.items[:len(right.items)-1]
		if !child.leaf() {
			child.children = append(child.children, right.children[0])
			copy(right.children, right.children[1:])
			clearChildren(right.children, len(right.children)-1, len(right.children))
			right.children = right.children[:len(right.children)-1]
		}
		return i
	}
	if i == len(n.children)-1 {
		i--
	}
	t.mergeChildren(n, i)
	return i
}

// mergeChildren merges child i, separator i and child i+1 into child i.
// n must be mutable; the left child is made mutable (the right is only read).
func (t *Tree[K, V]) mergeChildren(n *node[K, V], i int) {
	n.children[i] = t.mutable(n.children[i])
	left, right := n.children[i], n.children[i+1]
	t.ownItems(n)
	t.ownItems(left)
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	copy(n.items[i:], n.items[i+1:])
	clearItems(n.items, len(n.items)-1, len(n.items))
	n.items = n.items[:len(n.items)-1]
	copy(n.children[i+1:], n.children[i+2:])
	clearChildren(n.children, len(n.children)-1, len(n.children))
	n.children = n.children[:len(n.children)-1]
}

// Ascend calls fn for each item in key order, starting at the smallest key,
// until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(key K, val V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	for i, it := range n.items {
		if !n.leaf() && !t.ascend(n.children[i], fn) {
			return false
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}

// AscendRange calls fn in key order for every item with ge <= key < lt,
// until fn returns false.
func (t *Tree[K, V]) AscendRange(ge, lt K, fn func(key K, val V) bool) {
	t.AscendGE(ge, func(k K, v V) bool {
		if !t.less(k, lt) {
			return false
		}
		return fn(k, v)
	})
}

// AscendGE calls fn in key order for every item with key >= ge,
// until fn returns false.
func (t *Tree[K, V]) AscendGE(ge K, fn func(key K, val V) bool) {
	t.ascendFrom(t.root, func(k K) bool { return !t.less(k, ge) }, fn)
}

// AscendFrom calls fn in key order starting at the first item for which
// atOrAfter reports true, until fn returns false. atOrAfter must be monotone
// in key order — false for some prefix of the keys, true for the rest — so
// the seek is a binary search per node, exactly like AscendGE's, but the
// caller need not be able to build a K for the position it seeks: sqldb
// probes an index with bare column values while the stored keys read their
// columns out of the rows they point at.
func (t *Tree[K, V]) AscendFrom(atOrAfter func(key K) bool, fn func(key K, val V) bool) {
	t.ascendFrom(t.root, atOrAfter, fn)
}

func (t *Tree[K, V]) ascendFrom(n *node[K, V], atOrAfter func(K) bool, fn func(K, V) bool) bool {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if atOrAfter(n.items[mid].key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	if !n.leaf() {
		if !t.ascendFrom(n.children[i], atOrAfter, fn) {
			return false
		}
	}
	for ; i < len(n.items); i++ {
		if !fn(n.items[i].key, n.items[i].val) {
			return false
		}
		if !n.leaf() && !t.ascend(n.children[i+1], fn) {
			return false
		}
	}
	return true
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := t.min(t.root)
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := t.max(t.root)
	return it.key, it.val, true
}
