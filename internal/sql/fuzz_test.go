package sql

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gis/internal/expr"
)

// FuzzParse feeds arbitrary text to the lexer and parser. Whatever the
// text: a statement or a clean error, never a panic; a statement's
// printed form is a fixed point — it parses, to a statement that prints
// the same (the printed form is what a view stores, what EXPLAIN shows
// and what the query log fingerprints); VisitExprs hands every
// expression slot of it (checkSlots); and no node of the statement is
// reachable from two of its expressions, which Bind, binding each in
// place against its own schema, relies on. The seed corpus is
// testdata/parse_seeds.txt.
func FuzzParse(f *testing.F) {
	data, err := os.ReadFile("testdata/parse_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("parse_seeds.txt: %q: %v", line, err)
		}
		f.Add(s)
	}
	f.Add("SELECT " + strings.Repeat("(", 2*maxDepth) + "1")
	f.Add("SELECT " + strings.Repeat("NOT ", maxDepth/2) + "a")
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil && strings.Contains(err.Error(), "nests deeper") {
			// The printed form parenthesizes every operator, so a tree
			// close to maxDepth prints deeper than the parser reads.
			return
		}
		if err != nil {
			t.Fatalf("%q parses, but its printed form %q does not: %v", text, printed, err)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q prints as %q, which prints as %q", text, printed, reprinted)
		}
		checkSlots(t, text, stmt)
		owner, i := map[expr.Expr]int{}, 0
		eachExpr(stmt, func(e expr.Expr) {
			i++
			expr.Walk(e, func(n expr.Expr) bool {
				if o, seen := owner[n]; seen && o != i {
					t.Fatalf("%q: %s is reachable from two of the statement's expressions", text, n)
				}
				owner[n] = i
				return true
			})
		})
	})
}

// eachExpr calls fn with every expression of stmt — each slot VisitExprs
// hands that holds one — and of each statement nested in one of them.
func eachExpr(stmt Statement, fn func(expr.Expr)) {
	_ = VisitExprs(stmt, func(slot *expr.Expr) error {
		if *slot == nil {
			return nil
		}
		fn(*slot)
		expr.Walk(*slot, func(n expr.Expr) bool {
			if sq, ok := n.(*expr.Subquery); ok {
				eachExpr(sq.Stmt.(Statement), fn)
			}
			return true
		})
		return nil
	})
}

// checkSlots holds VisitExprs to a reflection oracle: the address of every
// expr.Expr field reachable from stmt through the statement's structs,
// pointers, interfaces and slices — empty or not, and without looking
// inside an expression, so without entering a subquery — must be handed
// to the callback once, and nothing else. A new clause in the AST that
// the walk does not know fails here.
func checkSlots(t *testing.T, text string, stmt Statement) {
	want := map[*expr.Expr]bool{}
	var find func(v reflect.Value)
	find = func(v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeFor[expr.Expr]():
			want[v.Addr().Interface().(*expr.Expr)] = true
		case v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface:
			if !v.IsNil() {
				find(v.Elem())
			}
		case v.Kind() == reflect.Struct:
			for i := range v.NumField() {
				find(v.Field(i))
			}
		case v.Kind() == reflect.Slice:
			for i := range v.Len() {
				find(v.Index(i))
			}
		}
	}
	find(reflect.ValueOf(stmt))
	got := map[*expr.Expr]bool{}
	_ = VisitExprs(stmt, func(slot *expr.Expr) error {
		if got[slot] || !want[slot] {
			t.Fatalf("%q: VisitExprs hands a slot holding %v that is not the statement's, or twice", text, *slot)
		}
		got[slot] = true
		return nil
	})
	for slot := range want {
		if !got[slot] {
			t.Fatalf("%q: VisitExprs does not hand the slot holding %v", text, *slot)
		}
	}
}
