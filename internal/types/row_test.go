package types

import (
	"testing"
	"testing/quick"
)

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestRowEqualHash(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), Null}
	b := Row{NewFloat(1), NewString("x"), Null}
	if !a.Equal(b) {
		t.Error("rows with numerically equal values must be Equal")
	}
	if a.Hash() != b.Hash() {
		t.Error("Equal rows must hash equal")
	}
	if a.Equal(Row{NewInt(1)}) {
		t.Error("different lengths must not be Equal")
	}
}

func TestRowCompare(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Error("lexicographic compare broken")
	}
	if a.Compare(a) != 0 {
		t.Error("self compare nonzero")
	}
	if (Row{NewInt(1)}).Compare(Row{NewInt(1), NewInt(2)}) >= 0 {
		t.Error("prefix must sort first")
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := NewSchema(
		Column{Table: "t", Name: "id", Type: KindInt},
		Column{Table: "t", Name: "name", Type: KindString},
		Column{Table: "u", Name: "id", Type: KindInt},
	)
	if i, err := s.IndexOf("t", "name"); err != nil || i != 1 {
		t.Errorf("IndexOf(t.name) = %d,%v", i, err)
	}
	if i, err := s.IndexOf("", "name"); err != nil || i != 1 {
		t.Errorf("IndexOf(name) = %d,%v", i, err)
	}
	if _, err := s.IndexOf("", "id"); err == nil {
		t.Error("unqualified ambiguous reference must error")
	}
	if i, err := s.IndexOf("u", "id"); err != nil || i != 2 {
		t.Errorf("IndexOf(u.id) = %d,%v", i, err)
	}
	if _, err := s.IndexOf("", "ghost"); err == nil {
		t.Error("unknown column must error")
	}
	// Case-insensitive resolution.
	if i, err := s.IndexOf("T", "NAME"); err != nil || i != 1 {
		t.Errorf("IndexOf(T.NAME) = %d,%v", i, err)
	}
}

func TestSchemaConcatQualifier(t *testing.T) {
	a := NewSchema(Column{Name: "x", Type: KindInt})
	b := NewSchema(Column{Name: "y", Type: KindString})
	j := a.Concat(b)
	if j.Len() != 2 || j.Columns[1].Name != "y" {
		t.Errorf("Concat = %v", j)
	}
}

func TestColumnQualifiedName(t *testing.T) {
	if (Column{Name: "a"}).QualifiedName() != "a" {
		t.Error("unqualified name")
	}
	if (Column{Table: "t", Name: "a"}).QualifiedName() != "t.a" {
		t.Error("qualified name")
	}
}

// Property: row hash is a function of row value, invariant under Clone.
func TestRowHashCloneProperty(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		r := Row{NewInt(a), NewString(s), NewBool(b)}
		return r.Hash() == r.Clone().Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
