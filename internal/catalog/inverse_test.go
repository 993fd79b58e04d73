package catalog

import (
	"testing"

	"gis/internal/types"
)

// TestToRemote: the one inverse of each kind of mapping, and the kind of
// what it returns. Where the mapping inverts exactly, the remote value
// reads back as the global one, and no remote value is returned where
// none reads as it.
func TestToRemote(t *testing.T) {
	site := types.NewString("A")
	bijective := map[string]string{"A": "active", "I": "inactive"}
	for _, c := range []struct {
		name           string
		remote, global types.Kind
		m              ColumnMapping
		v, want        types.Value
		ok, exact      bool
	}{
		{"identity", types.KindInt, types.KindInt, ColumnMapping{},
			types.NewInt(7), types.NewInt(7), true, true},
		{"identity, NULL", types.KindInt, types.KindInt, ColumnMapping{},
			types.Null, types.Null, true, true},
		{"identity, an integral FLOAT", types.KindInt, types.KindInt, ColumnMapping{},
			types.NewFloat(2), types.NewInt(2), true, true},
		{"identity, no INT is 2.5", types.KindInt, types.KindInt, ColumnMapping{},
			types.NewFloat(2.5), types.Null, false, true},
		{"identity, no INT is 1e20", types.KindInt, types.KindInt, ColumnMapping{},
			types.NewFloat(1e20), types.Null, false, true},
		{"INT over FLOAT", types.KindFloat, types.KindInt, ColumnMapping{},
			types.NewInt(3), types.NewFloat(3), true, false},
		{"STRING over INT", types.KindInt, types.KindString, ColumnMapping{},
			types.NewString("042"), types.NewInt(42), true, false},
		{"STRING over INT, not a number", types.KindInt, types.KindString, ColumnMapping{},
			types.NewString("x"), types.Null, false, false},
		{"bijective map, a mapped value", types.KindString, types.KindString, ColumnMapping{ValueMap: bijective},
			types.NewString("active"), types.NewString("A"), true, true},
		{"bijective map, passing through", types.KindString, types.KindString, ColumnMapping{ValueMap: bijective},
			types.NewString("other"), types.NewString("other"), true, true},
		{"bijective map, a remote code", types.KindString, types.KindString, ColumnMapping{ValueMap: bijective},
			types.NewString("A"), types.Null, false, true},
		{"non-bijective map", types.KindString, types.KindString, ColumnMapping{ValueMap: map[string]string{"A": "x", "B": "x"}},
			types.NewString("x"), types.Null, false, false},
		{"affine", types.KindFloat, types.KindFloat, ColumnMapping{Scale: 0.5, Offset: 1},
			types.NewFloat(3), types.NewFloat(4), true, false},
		{"affine over INT, between two", types.KindInt, types.KindFloat, ColumnMapping{Scale: 0.5, Offset: 1},
			types.NewFloat(3.25), types.Null, false, false},
		{"constant", types.KindString, types.KindString, ColumnMapping{RemoteCol: -1, Const: &site},
			types.NewString("A"), types.Null, false, false},
	} {
		f, _ := mappedColumn(t, c.remote, c.global, c.m)
		m := &f.Columns[0]
		rv, ok := m.ToRemote(c.v)
		if ok != c.ok || rv.Kind() != c.want.Kind() || !rv.Equal(c.want) {
			t.Errorf("%s: ToRemote(%v) = %s %v, %v; want %s %v, %v", c.name, c.v, rv.Kind(), rv, ok, c.want.Kind(), c.want, c.ok)
		}
		if m.InvertsExactly() != c.exact {
			t.Errorf("%s: InvertsExactly %v", c.name, !c.exact)
		}
		if g, err := m.ToGlobal(rv); c.exact && ok && (err != nil || !g.Equal(c.v)) {
			t.Errorf("%s: %v reads back as %v, %v", c.name, rv, g, err)
		}
	}
}

// FuzzToRemote: over a mapping that inverts exactly — an identity of
// each kind, or a value map of two entries — a value ToRemote translates
// reads back as itself, in the column's global kind, and one it does not
// is what no candidate remote value reads as: the value coerced to the
// remote kind, every code and every mapped value.
func FuzzToRemote(f *testing.F) {
	f.Add(uint8(0), "", "", "", "", uint8(2), "", int64(0), 2.5)
	f.Add(uint8(0), "", "", "", "", uint8(2), "", int64(0), 1e20)
	f.Add(uint8(1), "", "", "", "", uint8(1), "", int64(1<<53+1), 0.0)
	f.Add(uint8(2), "", "", "", "", uint8(1), "042", int64(0), 0.0)
	f.Add(uint8(3), "A", "active", "I", "inactive", uint8(2), "", int64(0), 0.0)
	f.Add(uint8(3), "A", "B", "B", "A", uint8(2), "", int64(0), 0.0)
	f.Add(uint8(3), "A", "A", "I", "inactive", uint8(3), "", int64(0), 0.0)
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, d string, which uint8, s string, i int64, x float64) {
		global := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindString}[kind%4]
		var valueMap map[string]string
		if kind%4 == 3 {
			valueMap = map[string]string{a: b, c: d}
		}
		frag, _ := mappedColumn(t, global, global, ColumnMapping{ValueMap: valueMap})
		m := &frag.Columns[0]
		if !m.InvertsExactly() {
			return
		}
		values := []types.Value{types.Null, types.NewInt(i), types.NewFloat(x)}
		if global == types.KindString {
			values = []types.Value{types.Null, types.NewString(s), types.NewString(a), types.NewString(b)}
		}
		v := values[int(which)%len(values)]
		if rv, ok := m.ToRemote(v); ok {
			g, err := m.ToGlobal(rv)
			if err != nil || !g.Equal(v) || !v.IsNull() && g.Kind() != global {
				t.Fatalf("%v over %v: ToRemote gives %s %v, which reads as %s %v, %v", v, valueMap, rv.Kind(), rv, g.Kind(), g, err)
			}
			return
		}
		var candidates []types.Value
		if cv, err := v.Coerce(global); err == nil {
			candidates = append(candidates, cv)
		}
		for code, mapped := range valueMap {
			candidates = append(candidates, types.NewString(code), types.NewString(mapped))
		}
		for _, r := range candidates {
			if g, err := m.ToGlobal(r); err == nil && g.Equal(v) {
				t.Fatalf("%v over %v: ToRemote has none, and %v reads as it", v, valueMap, r)
			}
		}
	})
}
