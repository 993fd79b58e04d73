package kvstore

import (
	"math/rand"
	"sort"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

func row(i int64) types.Row { return types.Row{types.NewInt(i)} }

func TestBTreePutGet(t *testing.T) {
	tr := NewBTree()
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
	tr := NewBTree()
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
	tr := NewBTree()
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
	tr := NewBTree()
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
	tr := NewBTree()
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
	tr := NewBTree()
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
	tr := NewBTree()
	ref := make(map[int64]int64)
	type view struct {
		root *node
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
	check(30000, view{tr.root, snapshot()})
	if len(views) < 50 {
		t.Fatalf("%d views: the run proves nothing", len(views))
	}
}
