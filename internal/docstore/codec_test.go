package docstore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gis/internal/types"
)

// InsertDoc takes what encoding/json decodes into an any, at any depth,
// and refuses anything else with an error that says where it is,
// storing nothing: no scan could read it.
func TestInsertDocRefusesNonJSONValues(t *testing.T) {
	s := New("d")
	fm := []FieldMap{{Column: types.Column{Name: "x", Type: types.KindInt}, Path: "x"}}
	if err := s.CreateCollection("c", fm); err != nil {
		t.Fatal(err)
	}
	good := map[string]any{
		"null": nil, "bool": true, "float": 1.5, "int": 3.0, "number": json.Number("12345678901234567"),
		"string": "s", "array": []any{false, json.Number("1e+00"), []any{}}, "object": map[string]any{"k": map[string]any{}},
	}
	if err := s.InsertDoc("c", good); err != nil {
		t.Fatalf("a document of JSON values: %v", err)
	}
	for _, bad := range []struct {
		doc  map[string]any
		path string
	}{
		{map[string]any{"x": 7}, `"x"`},
		{map[string]any{"a": 1.0, "x": struct{}{}}, `"x"`},
		{map[string]any{"x": json.Number("seven")}, `"x"`},
		{map[string]any{"x": map[string]any{"y": int64(1)}}, `"x.y"`},
		{map[string]any{"x": []any{1.0, "two", map[string]any{"t": time.Time{}}}}, `"x[2].t"`},
		{map[string]any{"x": []string{"a"}}, `"x"`},
		{map[string]any{"x": map[string]string{}}, `"x"`},
	} {
		err := s.InsertDoc("c", bad.doc)
		if err == nil || !strings.Contains(err.Error(), "at "+bad.path) {
			t.Errorf("%v: %v, want it refused at %s", bad.doc, err, bad.path)
		}
	}
	if n := len(s.collections["c"].docs); n != 1 {
		t.Errorf("%d documents stored, want the one good one", n)
	}
	// The good one reads back as it went in.
	c := s.collections["c"]
	if got := c.keys.decode(c.docs[0]); !reflect.DeepEqual(got, good) {
		t.Errorf("stored %v, want %v", got, good)
	}
}

// fuzzFields maps nested, missing, array and scalar paths.
var fuzzFields = func() []FieldMap {
	var fm []FieldMap
	for i, p := range []string{"id", "name", "a", "a.b", "a.b.c", "address.city", "vitals.weight", "missing.x", "arr", "arr.0", "s.t.u.v"} {
		fm = append(fm, FieldMap{Column: types.Column{Name: fmt.Sprintf("f%d", i), Type: types.KindString}, Path: p})
	}
	return fm
}()

// FuzzDocCodec holds the encoding to the document: for any JSON object,
// decoding what was stored gives what encoding/json decoded, encoding
// that again gives the same bytes, and every mapped path's compiled walk
// reads what a lookup in the decoded maps reads.
func FuzzDocCodec(f *testing.F) {
	for _, seed := range []string{
		`{"id": 1, "name": "ann", "address": {"city": "oslo"}, "vitals": {"weight": 60.5}}`,
		`{"id": 4, "name": "dan"}`,
		`{"id": 5, "name": null, "address": {"city": null}, "vitals": {"weight": 61}}`,
		`{"id": 6, "name": "fay", "address": "nowhere", "vitals": {}}`,
		`{"id": "seven", "name": "hal", "vitals": {"weight": [1]}}`,
		`{"a": [1]}`,
		`{"oid": 4, "cust": {"id": 40}, "note": {"k": [1, 2]}}`,
		`{"a": {"b": {"c": true}}, "arr": [{"0": 1}], "s": {"t": 5}}`,
		`{"": {"": -0}, "x": 1e300, "y": 9007199254740993, "z": -1.5e-7, "ké": "😀"}`,
		`{"a": {"b": false}, "a.b": "dotted"}`,
		`{"a": {"b": {"c": "` + strings.Repeat("long ", 40) + `"}, "k": [` + strings.Repeat(`{"x": 1}, `, 30) + `{}]}, "arr": [[], {}, null]}`,
		`{"k01": 1, "k17": 17, "k02": 2, "k16": 16, "k03": 3, "k15": 15, "k04": 4, "k14": 14, "k05": 5, "k13": 13, "k06": 6, "k12": 12, "k07": 7, "k11": 11, "k08": 8, "k10": 10, "k09": 9, "id": 0}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var doc map[string]any
		if json.Unmarshal([]byte(in), &doc) != nil || doc == nil {
			return
		}
		s := New("fuzz")
		if err := s.CreateCollection("c", fuzzFields); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertJSON("c", in); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		c := s.collections["c"]
		stored := c.docs[0]
		decoded := c.keys.decode(stored)
		if !reflect.DeepEqual(decoded, doc) {
			t.Fatalf("%s decodes to %v, want %v", in, decoded, doc)
		}
		if again, err := c.enc.encode(decoded); err != nil || again != stored {
			t.Fatalf("%s: encoding the decoded document gives %q, %v; stored %q", in, again, err, stored)
		}
		for i, fm := range c.fields {
			got, gerr := field(stored, c.paths[i])
			want, werr := referenceField(doc, fm.Path)
			if !types.Identical(got, want) || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s: path %s reads %v, %v; the maps read %v, %v", in, fm.Path, got, gerr, want, werr)
			}
		}
	})
}
