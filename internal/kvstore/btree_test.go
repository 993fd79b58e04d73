package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

func row(i int64) types.Row { return types.Row{types.NewInt(i)} }

// intTree is a tree of rows (v INT, k INT) keyed by k: row(v) stored
// under k reads back as (v, k).
func intTree() *BTree {
	return NewBTree(types.NewSchema(types.Column{Name: "v", Type: types.KindInt}, types.Column{Name: "k", Type: types.KindInt}), 1)
}

// Get returns a copy of the row stored under k.
func (t *BTree) Get(k types.Value) (types.Row, bool) {
	l, i, ok := t.lookup(k)
	if !ok {
		return nil, false
	}
	return l.Decode(i, make(types.Row, t.schema.Len())), true
}

// Ascend visits entries with lo <= key <= hi (per bound flags) in key
// order, until fn returns false.
func (t *BTree) Ascend(lo, hi expr.Bound, fn func(k types.Value, v types.Row) bool) {
	var c cursor
	c.seek(treeView{t.root, t.key}, lo)
	for {
		it, ok := c.next()
		if !ok || hi.ExcludesAbove(it.key) || !fn(it.key, it.val) {
			return
		}
	}
}

// item is an entry as next reads it.
type item struct {
	key types.Value
	val types.Row
}

// next returns the entry the cursor is at, its row decoded, and moves
// past it.
func (c *cursor) next() (item, bool) {
	l, i, ok := c.step()
	if !ok {
		return item{}, false
	}
	return item{l.Cols[c.key].At(i), l.Decode(i, make(types.Row, len(l.Cols)))}, true
}

func TestBTreePutGet(t *testing.T) {
	tr := intTree()
	for i := int64(0); i < 1000; i++ {
		if !tr.Put(types.NewInt(i), row(i)) {
			t.Fatalf("Put(%d) reported replace", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		v, ok := tr.Get(types.NewInt(i))
		if !ok || v[0].Int() != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get(types.NewInt(5000)); ok {
		t.Error("Get of missing key returned ok")
	}
	// Replacement.
	if tr.Put(types.NewInt(7), row(777)) {
		t.Error("replacing Put reported insert")
	}
	if v, _ := tr.Get(types.NewInt(7)); v[0].Int() != 777 {
		t.Error("replace did not take")
	}
	if tr.Len() != 1000 {
		t.Error("replace changed Len")
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := intTree()
	const n = 500
	for i := int64(0); i < n; i++ {
		tr.Put(types.NewInt(i), row(i))
	}
	// Delete evens.
	for i := int64(0); i < n; i += 2 {
		if !tr.Delete(types.NewInt(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	for i := int64(0); i < n; i++ {
		_, ok := tr.Get(types.NewInt(i))
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) after delete = %v", i, ok)
		}
	}
	if tr.Delete(types.NewInt(0)) {
		t.Error("double delete returned true")
	}
	if tr.Delete(types.NewInt(99999)) {
		t.Error("delete of missing key returned true")
	}
}

func TestBTreeAscendRange(t *testing.T) {
	tr := intTree()
	for i := int64(0); i < 100; i++ {
		tr.Put(types.NewInt(i*2), row(i*2)) // even keys 0..198
	}
	collect := func(lo, hi expr.Bound) []int64 {
		var out []int64
		tr.Ascend(lo, hi, func(k types.Value, _ types.Row) bool {
			out = append(out, k.Int())
			return true
		})
		return out
	}
	all := collect(expr.Unbounded, expr.Unbounded)
	if len(all) != 100 || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Fatalf("full scan = %v", all)
	}
	got := collect(expr.Incl(types.NewInt(10)), expr.Incl(types.NewInt(20)))
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("range [10,20] = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range [10,20] = %v", got)
		}
	}
	got = collect(expr.Excl(types.NewInt(10)), expr.Excl(types.NewInt(20)))
	if len(got) != 4 || got[0] != 12 || got[3] != 18 {
		t.Fatalf("range (10,20) = %v", got)
	}
	// Bounds between keys.
	got = collect(expr.Incl(types.NewInt(11)), expr.Incl(types.NewInt(15)))
	if len(got) != 2 || got[0] != 12 || got[1] != 14 {
		t.Fatalf("range [11,15] = %v", got)
	}
	// Empty range.
	if got = collect(expr.Incl(types.NewInt(500)), expr.Unbounded); len(got) != 0 {
		t.Fatalf("past-end range = %v", got)
	}
	// Early stop.
	count := 0
	tr.Ascend(expr.Unbounded, expr.Unbounded, func(types.Value, types.Row) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestBTreeStringKeys(t *testing.T) {
	tr := NewBTree(types.NewSchema(types.Column{Name: "w", Type: types.KindString}), 0)
	words := []string{"pear", "apple", "fig", "date", "cherry", "banana"}
	for _, w := range words {
		tr.Put(types.NewString(w), types.Row{types.NewString(w)})
	}
	var got []string
	tr.Ascend(expr.Incl(types.NewString("banana")), expr.Excl(types.NewString("fig")),
		func(k types.Value, _ types.Row) bool {
			got = append(got, k.Str())
			return true
		})
	want := []string{"banana", "cherry", "date"}
	if len(got) != len(want) {
		t.Fatalf("string range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string range = %v", got)
		}
	}
}

// TestBTreeRandomizedAgainstMap cross-checks a long random
// insert/delete/lookup/scan sequence against a reference map.
func TestBTreeRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := intTree()
	ref := make(map[int64]int64)
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(2000))
		switch rng.Intn(4) {
		case 0, 1: // put
			tr.Put(types.NewInt(k), row(k*10))
			ref[k] = k * 10
		case 2: // delete
			got := tr.Delete(types.NewInt(k))
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 3: // get
			v, ok := tr.Get(types.NewInt(k))
			want, wantOK := ref[k]
			if ok != wantOK || (ok && v[0].Int() != want) {
				t.Fatalf("op %d: Get(%d) = %v,%v want %v,%v", op, k, v, ok, want, wantOK)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref = %d", op, tr.Len(), len(ref))
		}
	}
	// Final ordered scan must equal sorted reference keys.
	keys := make([]int64, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []int64
	tr.Ascend(expr.Unbounded, expr.Unbounded, func(k types.Value, _ types.Row) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], keys[i])
		}
	}
}

// TestBTreeRandomRanges cross-checks random range scans.
func TestBTreeRandomRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := intTree()
	var keys []int64
	for i := 0; i < 500; i++ {
		k := int64(rng.Intn(10000))
		if tr.Put(types.NewInt(k), row(k)) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for trial := 0; trial < 200; trial++ {
		lo := int64(rng.Intn(10000))
		hi := lo + int64(rng.Intn(3000))
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		loB, hiB := expr.Bound{Value: types.NewInt(lo), Inclusive: loIncl}, expr.Bound{Value: types.NewInt(hi), Inclusive: hiIncl}
		var want []int64
		for _, k := range keys {
			if (k > lo || (loIncl && k == lo)) && (k < hi || (hiIncl && k == hi)) {
				want = append(want, k)
			}
		}
		var got []int64
		tr.Ascend(loB, hiB, func(k types.Value, _ types.Row) bool {
			got = append(got, k.Int())
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d [%d,%d] got %d keys want %d", trial, lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// A view is the tree as it stood: through a long random run of puts,
// replacements and deletes — splits, borrows and merges among them —
// every view taken on the way, walked whole or from a key on, reads the
// entries of its moment.
func TestBTreeViewsSurviveWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := intTree()
	ref := make(map[int64]int64)
	type view struct {
		root treeView
		want []int64 // key, value, key, value, ... in key order
	}
	var views []view
	snapshot := func() []int64 {
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out := make([]int64, 0, 2*len(keys))
		for _, k := range keys {
			out = append(out, k, ref[k])
		}
		return out
	}
	check := func(op int, v view) {
		t.Helper()
		from := int64(rng.Intn(3000)) - 500
		var c cursor
		c.seek(v.root, expr.Incl(types.NewInt(from)))
		want := v.want
		for len(want) > 0 && want[0] < from {
			want = want[2:]
		}
		for i := 0; ; i += 2 {
			e, ok := c.next()
			if !ok {
				if i != len(want) {
					t.Fatalf("op %d: a view of %d entries ends after %d from key %d on", op, len(v.want)/2, i/2, from)
				}
				return
			}
			if i == len(want) || e.key.Int() != want[i] || e.val[0].Int() != want[i+1] {
				t.Fatalf("op %d: a view reads (%v, %v) at entry %d from key %d on, not what it held", op, e.key, e.val, i/2, from)
			}
		}
	}
	for op := 0; op < 30000; op++ {
		if op >= 10000 && rng.Intn(200) == 0 {
			views = append(views, view{tr.view(), snapshot()})
		}
		k := int64(rng.Intn(2000))
		// Deletes outnumber puts now and then, so the tree shrinks too.
		if rng.Intn(100) < 45+20*((op/3000)%2) {
			tr.Put(types.NewInt(k), row(int64(op)))
			ref[k] = int64(op)
		} else {
			tr.Delete(types.NewInt(k))
			delete(ref, k)
		}
		if len(views) > 0 && rng.Intn(50) == 0 {
			check(op, views[rng.Intn(len(views))])
		}
	}
	for _, v := range views {
		check(30000, v)
	}
	check(30000, view{treeView{tr.root, tr.key}, snapshot()})
	if len(views) < 50 {
		t.Fatalf("%d views: the run proves nothing", len(views))
	}
}

// FuzzBTree decodes from its input runs of puts and deletes, lookups,
// views and range scans over a tree of rows (v INT, s STRING or NULL,
// key INT), and holds the tree to a sorted slice of its entries after
// every operation. A run puts or deletes up to 64 consecutive keys, so
// that a short input splits, borrows and merges leaves. At the end,
// every view taken on the way reads, whole, the entries of its moment.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 63, 0, 64, 0, 63, 0, 128, 0, 63, 0, 192, 0, 63, 0, 0, 1, 63, 3, 1, 0, 32, 63, 4, 0, 10, 1, 0, 200, 3})
	f.Add([]byte{0, 5, 3, 20, 0, 0, 3, 63, 3, 0, 200, 2, 63, 2, 10, 3, 3, 1, 0, 0, 63, 4, 1, 0, 0, 255, 3, 2, 0, 30})
	f.Add([]byte("put delete get view ascend: a run of keys, then holes in it"))
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		type entry struct {
			key, v int64
			s      types.Value
		}
		cmp := func(e entry, k int64) int { return int(e.key - k) }
		tr := NewBTree(types.NewSchema(types.Column{Name: "v", Type: types.KindInt},
			types.Column{Name: "s", Type: types.KindString}, types.Column{Name: "key", Type: types.KindInt}), 2)
		var model []entry
		type view struct {
			root treeView
			want []entry
		}
		var views []view
		same := func(row types.Row, e entry) bool {
			return row[0].Int() == e.v && row[1].Kind() == e.s.Kind() && (e.s.IsNull() || row[1].Str() == e.s.Str()) && row[2].Int() == e.key
		}
		for op := 0; len(in) > 0 && op < 300; op++ {
			k := int64(next() | next()&3<<8)
			switch op5 := next() % 5; op5 {
			case 0, 1: // a run of puts or of deletes
				put := op5 == 0
				for n := next()%64 + 1; n > 0; n, k = n-1, k+1 {
					i, held := slices.BinarySearchFunc(model, k, cmp)
					if put {
						e := entry{key: k, v: int64(op), s: types.Null}
						if op%3 != 0 {
							e.s = types.NewString(strings.Repeat("x", op%7))
						}
						if tr.Put(types.NewInt(k), types.Row{types.NewInt(e.v), e.s, types.NewInt(k)}) == held {
							t.Fatalf("op %d: Put(%d) reports new = %v, the key was held: %v", op, k, !held, held)
						}
						if held {
							model[i] = e
						} else {
							model = slices.Insert(model, i, e)
						}
					} else {
						if tr.Delete(types.NewInt(k)) != held {
							t.Fatalf("op %d: Delete(%d) = %v, the key was held: %v", op, k, !held, held)
						}
						if held {
							model = slices.Delete(model, i, i+1)
						}
					}
				}
			case 2:
				i, held := slices.BinarySearchFunc(model, k, cmp)
				row, ok := tr.Get(types.NewInt(k))
				if ok != held || ok && !same(row, model[i]) {
					t.Fatalf("op %d: Get(%d) = %v, %v; the model holds it: %v", op, k, row, ok, held)
				}
			case 3:
				views = append(views, view{tr.view(), slices.Clone(model)})
			case 4:
				lo, hi := expr.Bound{Value: types.NewInt(k), Inclusive: k%2 == 0}, expr.Unbounded
				if w := next(); w > 0 {
					hi = expr.Bound{Value: types.NewInt(k + int64(w)), Inclusive: w%2 == 0}
				}
				want := model
				for len(want) > 0 && lo.ExcludesBelow(types.NewInt(want[0].key)) {
					want = want[1:]
				}
				n := 0
				tr.Ascend(lo, hi, func(key types.Value, row types.Row) bool {
					if n == len(want) || key.Int() != want[n].key || !same(row, want[n]) {
						t.Fatalf("op %d: Ascend from %v to %v reads %v at entry %d", op, lo, hi, row, n)
					}
					n++
					return true
				})
				if n < len(want) && !hi.ExcludesAbove(types.NewInt(want[n].key)) {
					t.Fatalf("op %d: Ascend from %v to %v stops before key %d", op, lo, hi, want[n].key)
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, the model holds %d", op, tr.Len(), len(model))
			}
		}
		views = append(views, view{treeView{tr.root, tr.key}, model})
		for i, v := range views {
			var c cursor
			c.seek(v.root, expr.Unbounded)
			for n := 0; ; n++ {
				e, ok := c.next()
				if !ok {
					if n != len(v.want) {
						t.Fatalf("view %d of %d entries ends after %d", i, len(v.want), n)
					}
					break
				}
				if n == len(v.want) || !same(e.val, v.want[n]) {
					t.Fatalf("view %d reads %v at entry %d, not what it held", i, e.val, n)
				}
			}
		}
	})
}

// A tree three levels high shrinks to a leaf and grows again: its
// internal nodes split, borrow and merge, which a tree of a few thousand
// keys never makes them do. Every ascending scan along the way reads
// the model, and a view taken when the tree was largest reads it as it
// stood.
func TestBTreeInternalNodesRebalance(t *testing.T) {
	const n = 60000
	rng := rand.New(rand.NewSource(5))
	tr := intTree()
	keys := rng.Perm(n)
	for _, k := range keys {
		tr.Put(types.NewInt(int64(k)), row(int64(k)))
	}
	height := 1
	for nd := tr.root; !nd.leaf(); nd = nd.kids[0] {
		height++
	}
	if height < 3 {
		t.Fatalf("%d keys make a tree %d high; the test wants internal nodes below the root", n, height)
	}
	full := tr.view()
	held := make(map[int64]bool, n)
	for _, k := range keys {
		held[int64(k)] = true
	}
	check := func(phase string) {
		t.Helper()
		want := make([]int64, 0, len(held))
		for k := range held {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		tr.Ascend(expr.Unbounded, expr.Unbounded, func(k types.Value, v types.Row) bool {
			if v[0].Int() != k.Int() {
				t.Fatalf("%s: key %v holds %v", phase, k, v)
			}
			got = append(got, k.Int())
			return true
		})
		if !slices.Equal(got, want) || tr.Len() != len(want) {
			t.Fatalf("%s: the tree holds %d keys (Len %d), the model %d", phase, len(got), tr.Len(), len(want))
		}
	}
	for i, k := range rng.Perm(n)[:n-10] {
		if !tr.Delete(types.NewInt(int64(k))) {
			t.Fatalf("Delete(%d) = false", k)
		}
		delete(held, int64(k))
		if i%5000 == 0 {
			check(fmt.Sprintf("after %d deletes", i+1))
		}
	}
	check("shrunk")
	if !tr.root.leaf() {
		t.Errorf("ten keys left in a tree of more than one leaf")
	}
	for _, k := range rng.Perm(n)[:n/2] {
		tr.Put(types.NewInt(int64(k)), row(int64(k)))
		held[int64(k)] = true
	}
	check("grown again")
	var c cursor
	c.seek(full, expr.Unbounded)
	for k := int64(0); k < n; k++ {
		if e, ok := c.next(); !ok || e.key.Int() != k {
			t.Fatalf("the view taken at %d keys reads %v at key %d", n, e.key, k)
		}
	}
	if _, ok := c.next(); ok {
		t.Fatalf("the view taken at %d keys reads more", n)
	}
}
