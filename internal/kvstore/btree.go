// Package kvstore implements an ordered key-value component system: a
// from-scratch in-memory B+-tree keyed by values of the global type
// system, wrapped as a weak source that supports only keyed access
// (equality and range predicates on the key column). It models the
// keyed-record stores (IMS/VSAM-era systems) the paper's component
// inventory includes.
package kvstore

import (
	"slices"
	"sort"
	"sync/atomic"

	"gis/internal/expr"
	"gis/internal/types"
)

// maxKids is how many children an internal node holds. A node other
// than the root holds at least half as many children, or rows.
const maxKids = 64

// node is a leaf, a types.Chunk of rows in key order, or an internal
// node, whose chunk holds no rows, only its stamps, and which holds
// children and the separators between them: every key under kids[i] is
// below seps[i], and every key under kids[i+1] is seps[i] or above.
type node struct {
	types.Chunk
	seps []types.Value
	kids []*node
}

func (n *node) leaf() bool { return n.kids == nil }

// size is the number of a leaf's rows or an internal node's children.
func (n *node) size() int {
	if n.leaf() {
		return n.Len()
	}
	return len(n.kids)
}

// child returns the index of the child whose keys k falls among: the
// number of separators at or below k.
func (n *node) child(k types.Value) int {
	return sort.Search(len(n.seps), func(i int) bool { return n.seps[i].Compare(k) > 0 })
}

// search returns the position of the first row of a leaf whose key, in
// column key, is k or above, and whether it is k.
func (n *node) search(key int, k types.Value) (int, bool) {
	keys := &n.Cols[key]
	i := sort.Search(keys.Len(), func(i int) bool { return keys.At(i).Compare(k) >= 0 })
	return i, i < keys.Len() && keys.At(i).Compare(k) == 0
}

// BTree is an ordered map from types.Value keys to rows, which are kept
// as columns: a row's key is one of its columns. Duplicate keys are not
// allowed; Put replaces.
//
// One writer at a time changes the tree, in place. A reader that wants
// the tree as it stands beyond the writer's lock takes a view: the root,
// and a count, by which Put and Delete copy what the view may hold on
// the path they descend (own, and of a leaf types.Chunk's stamp rule).
type BTree struct {
	root   *node
	schema *types.Schema
	key    int
	size   int
	// views counts the views taken.
	views atomic.Uint64
}

// NewBTree returns an empty tree of rows of schema, keyed by column key.
func NewBTree(schema *types.Schema, key int) *BTree {
	t := &BTree{schema: schema, key: key}
	t.root = t.newNode(schema.Columns)
	return t
}

// newNode returns an empty leaf of cols, or with none an internal node.
func (t *BTree) newNode(cols []types.Column) *node {
	return &node{Chunk: types.NewChunk(cols, t.views.Load())}
}

// Len returns the number of entries.
func (t *BTree) Len() int { return t.size }

// treeView is the tree as it stood when it was taken.
type treeView struct {
	root *node
	key  int
}

// view returns the tree as it stands, for a cursor to walk while
// writers go on. Readers may take views concurrently; a writer may not
// be running.
func (t *BTree) view() treeView {
	t.views.Add(1)
	return treeView{t.root, t.key}
}

// leaves appends the leaves under n to out, in key order.
func leaves(n *node, out []*types.Chunk) []*types.Chunk {
	if n.leaf() {
		return append(out, &n.Chunk)
	}
	for _, k := range n.kids {
		out = leaves(k, out)
	}
	return out
}

// own returns n for a writer to change: n, or when a view may hold its
// header (types.Chunk.Claim) a copy of it, its separators and children,
// which the caller puts in n's place in a parent it already owns.
func (t *BTree) own(n *node) *node {
	if !n.Claim(t.views.Load()) {
		return n
	}
	c := *n
	c.seps, c.kids = slices.Clone(n.seps), slices.Clone(n.kids)
	return &c
}

// ownKid makes child i of n, which the caller owns, the writer's own.
func (t *BTree) ownKid(n *node, i int) *node {
	n.kids[i] = t.own(n.kids[i])
	return n.kids[i]
}

// col returns column j of leaf l, which the caller owns, for the writer
// to change, with room for n more values (types.Chunk.Own).
func (t *BTree) col(l *node, j, n int) *types.Vector { return l.Own(t.views.Load(), j, n, false) }

// value is column j of the row Put stores as v under k.
func (t *BTree) value(k types.Value, v types.Row, j int) types.Value {
	if j == t.key {
		return k
	}
	return v[j]
}

// lookup returns the leaf and the position of the row stored under k.
func (t *BTree) lookup(k types.Value) (*node, int, bool) {
	n := t.root
	for !n.leaf() {
		n = n.kids[n.child(k)]
	}
	i, ok := n.search(t.key, k)
	return n, i, ok
}

// Put stores v under k, and reports whether k is new (false means
// replaced). The row stored is v with k as its key column, which v may
// leave off when it is the last.
func (t *BTree) Put(k types.Value, v types.Row) bool {
	t.root = t.own(t.root)
	inserted, sep, right := t.put(t.root, k, v, true)
	if right != nil {
		root := t.newNode(nil)
		root.seps, root.kids = []types.Value{sep}, []*node{t.root, right}
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// put stores v under k below n, which the caller owns and which is the
// tree's last node at its depth when rightmost is set. When n overflows
// it splits, and put returns the node split off its right and the
// separator that goes before it.
func (t *BTree) put(n *node, k types.Value, v types.Row, rightmost bool) (inserted bool, sep types.Value, right *node) {
	if !n.leaf() {
		i := n.child(k)
		inserted, sep, right = t.put(t.ownKid(n, i), k, v, rightmost && i == len(n.kids)-1)
		if right == nil {
			return inserted, sep, nil
		}
		n.seps, n.kids = slices.Insert(n.seps, i, sep), slices.Insert(n.kids, i+1, right)
		if len(n.kids) <= maxKids {
			return inserted, sep, nil
		}
		h := len(n.kids) / 2
		sep, right = n.seps[h-1], t.newNode(nil)
		right.seps, right.kids = slices.Clone(n.seps[h:]), slices.Clone(n.kids[h:])
		n.seps, n.kids = slices.Delete(n.seps, h-1, len(n.seps)), slices.Delete(n.kids, h, len(n.kids))
		return inserted, sep, right
	}
	i, eq := n.search(t.key, k)
	if eq {
		for j := range n.Cols {
			if x := t.value(k, v, j); !n.Cols[j].Holds(i, x) {
				t.col(n, j, 0).Set(i, x)
			}
		}
		return false, sep, nil
	}
	at := n
	if rows := n.size(); rows == types.ChunkRows {
		// An ascending load leaves its leaves full: the key past the
		// tree's last starts a leaf of its own.
		h := rows / 2
		if rightmost && i == rows {
			h = rows
		}
		right = t.newNode(t.schema.Columns)
		for j := range n.Cols {
			c, r := t.col(n, j, 0), t.col(right, j, rows-h)
			for p := h; p < rows; p++ {
				r.Append(c.At(p))
			}
			for p := rows - 1; p >= h; p-- {
				c.Remove(p)
			}
		}
		if i > h || h == rows {
			at, i = right, i-h
		}
	}
	for j := range at.Cols {
		t.col(at, j, 1).Insert(i, t.value(k, v, j))
	}
	if right != nil {
		sep = right.Cols[t.key].At(0)
	}
	return true, sep, right
}

// Delete removes the entry for k and reports whether it existed.
func (t *BTree) Delete(k types.Value) bool {
	if _, _, ok := t.lookup(k); !ok {
		return false
	}
	t.root = t.own(t.root)
	t.delete(t.root, k)
	if !t.root.leaf() && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
	}
	t.size--
	return true
}

// delete removes k, which the tree holds, from below n, which the caller
// owns, and leaves every child of n at least half full.
func (t *BTree) delete(n *node, k types.Value) {
	if n.leaf() {
		i, _ := n.search(t.key, k)
		for j := range n.Cols {
			t.col(n, j, 0).Remove(i)
		}
		return
	}
	i := n.child(k)
	c := t.ownKid(n, i)
	t.delete(c, k)
	limit := maxKids
	if c.leaf() {
		limit = types.ChunkRows
	}
	if c.size() >= limit/2 {
		return
	}
	// Merge c with a sibling, or move one entry across from it.
	if i == len(n.kids)-1 {
		i--
	}
	a, b := t.ownKid(n, i), n.kids[i+1]
	if a.size()+b.size() > limit {
		b = t.ownKid(n, i+1)
	}
	switch {
	case a.size()+b.size() <= limit && a.leaf():
		for j := range a.Cols {
			d, s := t.col(a, j, b.size()), &b.Cols[j]
			for p := 0; p < s.Len(); p++ {
				d.Append(s.At(p))
			}
		}
	case a.size()+b.size() <= limit:
		a.seps = append(append(a.seps, n.seps[i]), b.seps...)
		a.kids = append(a.kids, b.kids...)
	case a.leaf():
		from, to, p, q := a, b, a.size()-1, 0
		if a.size() < b.size() {
			from, to, p, q = b, a, 0, a.size()
		}
		for j := range from.Cols {
			t.col(to, j, 1).Insert(q, from.Cols[j].At(p))
			t.col(from, j, 0).Remove(p)
		}
		n.seps[i] = b.Cols[t.key].At(0)
		return
	case a.size() < b.size():
		a.seps, a.kids, n.seps[i] = append(a.seps, n.seps[i]), append(a.kids, b.kids[0]), b.seps[0]
		b.seps, b.kids = slices.Delete(b.seps, 0, 1), slices.Delete(b.kids, 0, 1)
		return
	default:
		last := len(a.seps) - 1
		b.seps, b.kids, n.seps[i] = slices.Insert(b.seps, 0, n.seps[i]), slices.Insert(b.kids, 0, a.kids[last+1]), a.seps[last]
		a.seps, a.kids = slices.Delete(a.seps, last, last+1), slices.Delete(a.kids, last+1, last+2)
		return
	}
	n.seps, n.kids = slices.Delete(n.seps, i, i+1), slices.Delete(n.kids, i+1, i+2)
}

// maxHeight bounds a cursor's stack. A tree of height h holds at least
// 2*(maxKids/2)^(h-2) leaves: sixteen levels are more than memory has.
const maxHeight = 16

// cursor walks a tree in key order with a stack in place of recursion,
// so that a walk can stop at an entry and go on from it later. It starts
// from a view and reads nodes, never the BTree, and so walks a view
// while writers change the tree.
// A frame (n, i) of an internal node says child i is the one being
// walked; the top frame, a leaf's, says row i is the next to visit.
type cursor struct {
	stack [maxHeight]struct {
		n *node
		i int
	}
	depth int
	key   int
}

func (c *cursor) push(n *node, i int) {
	c.stack[c.depth].n, c.stack[c.depth].i = n, i
	c.depth++
}

// seek stacks the path to the first key of v that lo admits.
func (c *cursor) seek(v treeView, lo expr.Bound) {
	c.key = v.key
	for n := v.root; ; {
		if n.leaf() {
			i, eq := 0, false
			if !lo.Unbounded {
				i, eq = n.search(c.key, lo.Value)
			}
			if eq && !lo.Inclusive {
				i++
			}
			c.push(n, i)
			return
		}
		i := 0
		if !lo.Unbounded {
			i = n.child(lo.Value)
		}
		c.push(n, i)
		n = n.kids[i]
	}
}

// step returns the leaf and the position of the entry the cursor is at
// and moves past it.
func (c *cursor) step() (*node, int, bool) {
	for c.depth > 0 {
		f := &c.stack[c.depth-1]
		switch {
		case f.n.leaf() && f.i < f.n.size():
			f.i++
			return f.n, f.i - 1, true
		case !f.n.leaf() && f.i+1 < len(f.n.kids):
			f.i++
			for n := f.n.kids[f.i]; ; n = n.kids[0] {
				c.push(n, 0)
				if n.leaf() {
					break
				}
			}
		default:
			c.depth--
		}
	}
	return nil, 0, false
}
