// Package kvstore implements an ordered key-value component system: a
// from-scratch in-memory B-tree keyed by values of the global type
// system, wrapped as a weak source that supports only keyed access
// (equality and range predicates on the key column). It models the
// keyed-record stores (IMS/VSAM-era systems) the paper's component
// inventory includes.
package kvstore

import (
	"sync/atomic"

	"gis/internal/expr"
	"gis/internal/types"
)

// degree is the minimum branching factor of the B-tree: every node other
// than the root holds between degree-1 and 2*degree-1 items.
const degree = 16

type item struct {
	key types.Value
	val types.Row
}

type node struct {
	items    []item
	children []*node // nil for leaves
	// stamp is BTree.views when the node was made: a view taken since
	// may hold it, and then a writer changes a copy (BTree.own).
	stamp uint64
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// find returns the index of the first item with key >= k and whether the
// item at that index equals k.
func (n *node) find(k types.Value) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.items[mid].key.Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && n.items[lo].key.Compare(k) == 0 {
		return lo, true
	}
	return lo, false
}

// BTree is an ordered map from types.Value keys to rows. Duplicate keys
// are not allowed; Put replaces. The zero value is not usable — call
// NewBTree.
//
// One writer at a time changes the tree, in place. A reader that wants
// the tree as it stands beyond the lock that excludes the writer takes
// a view: the root, and a count. From then on a node made before the
// count is one the view may be walking, so Put and Delete copy such a
// node before they change it, from the root down the one path they
// descend, and leave the view its own. With no view taken since a node
// was made, a write allocates what it always did.
type BTree struct {
	root *node
	size int
	// views counts the views taken.
	views atomic.Uint64
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &node{}} }

// Len returns the number of entries.
func (t *BTree) Len() int { return t.size }

// view returns the tree as it stands, for a cursor to walk while
// writers go on. Readers may take views concurrently; a writer may not
// be running.
func (t *BTree) view() *node {
	t.views.Add(1)
	return t.root
}

// own returns n for a writer to change: n itself when no view was taken
// since it was made, else a copy, which the caller puts in n's place in
// a parent it already owns.
func (t *BTree) own(n *node) *node {
	v := t.views.Load()
	if n.stamp == v {
		return n
	}
	c := &node{items: append(make([]item, 0, 2*degree-1), n.items...), stamp: v}
	if !n.leaf() {
		c.children = append(make([]*node, 0, 2*degree), n.children...)
	}
	return c
}

// ownChild makes child i of n, which the caller owns, the writer's own.
func (t *BTree) ownChild(n *node, i int) *node {
	n.children[i] = t.own(n.children[i])
	return n.children[i]
}

// Get returns the row stored under k.
func (t *BTree) Get(k types.Value) (types.Row, bool) {
	n := t.root
	for {
		i, eq := n.find(k)
		if eq {
			return n.items[i].val, true
		}
		if n.leaf() {
			return nil, false
		}
		n = n.children[i]
	}
}

// Put inserts or replaces the entry for k. It reports whether a new key
// was inserted (false means replaced).
func (t *BTree) Put(k types.Value, v types.Row) bool {
	t.root = t.own(t.root)
	if len(t.root.items) == 2*degree-1 {
		t.root = &node{children: []*node{t.root}, stamp: t.root.stamp}
		t.splitChild(t.root, 0)
	}
	inserted := t.insert(t.root, k, v)
	if inserted {
		t.size++
	}
	return inserted
}

// splitChild splits the full child at index i of n, lifting its median
// item. The caller owns n.
func (t *BTree) splitChild(n *node, i int) {
	child := t.ownChild(n, i)
	mid := degree - 1
	median := child.items[mid]
	right := &node{
		items: append([]item(nil), child.items[mid+1:]...),
		stamp: child.stamp,
	}
	if !child.leaf() {
		right.children = append([]*node(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]

	n.items = append(n.items, item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// insert puts k under n, which the caller owns.
func (t *BTree) insert(n *node, k types.Value, v types.Row) bool {
	i, eq := n.find(k)
	if eq {
		n.items[i].val = v
		return false
	}
	if n.leaf() {
		n.items = append(n.items, item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = item{key: k, val: v}
		return true
	}
	if len(n.children[i].items) == 2*degree-1 {
		t.splitChild(n, i)
		switch c := k.Compare(n.items[i].key); {
		case c == 0:
			n.items[i].val = v
			return false
		case c > 0:
			i++
		}
	}
	return t.insert(t.ownChild(n, i), k, v)
}

// Delete removes the entry for k and reports whether it existed.
func (t *BTree) Delete(k types.Value) bool {
	if t.size == 0 {
		return false
	}
	t.root = t.own(t.root)
	deleted := t.delete(t.root, k)
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if deleted {
		t.size--
	}
	return deleted
}

// delete removes k from under n, which the caller owns.
func (t *BTree) delete(n *node, k types.Value) bool {
	i, eq := n.find(k)
	if n.leaf() {
		if !eq {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if eq {
		// Replace with predecessor from the left child, then delete it.
		if len(n.children[i].items) >= degree {
			left := t.ownChild(n, i)
			pred := left.maxItem()
			n.items[i] = pred
			return t.delete(left, pred.key)
		}
		if len(n.children[i+1].items) >= degree {
			right := t.ownChild(n, i+1)
			succ := right.minItem()
			n.items[i] = succ
			return t.delete(right, succ.key)
		}
		// Merge left + median + right, then recurse.
		t.mergeChildren(n, i)
		return t.delete(n.children[i], k)
	}
	if len(n.children[i].items) < degree {
		t.fill(n, i)
		// fill may have merged child i with a sibling; recompute.
		i, _ = n.find(k)
		if i > len(n.children)-1 {
			i = len(n.children) - 1
		}
	}
	return t.delete(t.ownChild(n, i), k)
}

func (n *node) maxItem() item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (n *node) minItem() item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// fill ensures child i of n, which the caller owns, has at least degree
// items by borrowing from a sibling or merging.
func (t *BTree) fill(n *node, i int) {
	if i > 0 && len(n.children[i-1].items) >= degree {
		// Borrow from left sibling through the separator.
		child, left := t.ownChild(n, i), t.ownChild(n, i-1)
		child.items = append([]item{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append([]*node{moved}, child.children...)
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		child, right := t.ownChild(n, i), t.ownChild(n, i+1)
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			moved := right.children[0]
			right.children = right.children[1:]
			child.children = append(child.children, moved)
		}
		return
	}
	if i < len(n.children)-1 {
		t.mergeChildren(n, i)
	} else {
		t.mergeChildren(n, i-1)
	}
}

// mergeChildren merges child i, separator i, and child i+1 of n, which
// the caller owns, into child i.
func (t *BTree) mergeChildren(n *node, i int) {
	left, right := t.ownChild(n, i), n.children[i+1]
	left.items = append(left.items, n.items[i])
	left.items = append(left.items, right.items...)
	left.children = append(left.children, right.children...)
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Ascend visits entries with lo <= key <= hi (per bound flags) in key
// order. fn returning false stops the scan.
func (t *BTree) Ascend(lo, hi expr.Bound, fn func(k types.Value, v types.Row) bool) {
	var c cursor
	c.seek(t.root, lo)
	for {
		it, ok := c.next()
		if !ok || hi.ExcludesAbove(it.key) || !fn(it.key, it.val) {
			return
		}
	}
}

// maxHeight bounds a cursor's stack. A tree of height h holds at least
// 2*degree^(h-1) - 1 keys: sixteen levels are more than memory has.
const maxHeight = 16

// cursor walks a tree in key order with a stack in place of recursion,
// so that a walk can stop at an entry and go on from it later. It starts
// from a node and reads nodes, never the BTree, and so walks a view
// while writers change the tree.
// A frame (n, i) says item i of n is the next of n's own to visit, and
// what lies under child i is already on the stack above, or done.
type cursor struct {
	stack [maxHeight]struct {
		n *node
		i int
	}
	depth int
}

func (c *cursor) push(n *node, i int) {
	c.stack[c.depth].n, c.stack[c.depth].i = n, i
	c.depth++
}

// descend stacks the path to the smallest key under n.
func (c *cursor) descend(n *node) {
	for c.push(n, 0); !n.leaf(); c.push(n, 0) {
		n = n.children[0]
	}
}

// seek stacks the path to the first key under n that lo admits.
func (c *cursor) seek(n *node, lo expr.Bound) {
	if lo.Unbounded {
		c.descend(n)
		return
	}
	for {
		// The first item >= lo; what lies under the child before it is
		// smaller than it, and may or may not reach lo.
		i, eq := n.find(lo.Value)
		if eq && !lo.Inclusive {
			i++
		}
		c.push(n, i)
		switch {
		case n.leaf():
			return
		case eq && lo.Inclusive:
			return
		case eq:
			c.descend(n.children[i])
			return
		}
		n = n.children[i]
	}
}

// next returns the entry the cursor is at and moves past it.
func (c *cursor) next() (item, bool) {
	for c.depth > 0 {
		f := &c.stack[c.depth-1]
		if f.i == len(f.n.items) {
			c.depth--
			continue
		}
		it := f.n.items[f.i]
		f.i++
		if !f.n.leaf() {
			c.descend(f.n.children[f.i])
		}
		return it, true
	}
	return item{}, false
}
