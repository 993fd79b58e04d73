// Package expr implements the typed expression engine used by the SQL
// front end, the optimizer, and the execution engine. Expressions are
// built unbound (column references by name) by the parser, bound against
// a schema (references resolved to positions, types inferred) by Bind,
// and then evaluated row-at-a-time with SQL tri-state NULL semantics.
package expr

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"gis/internal/types"
)

// Expr is a node in an expression tree. The node set is closed: the
// eleven types of this package, which Bind and the traversal switches of
// walk.go enumerate (a node's children are stated there, not by a method).
//
// ResultType is only meaningful after the expression has been bound; an
// unbound expression reports KindNull. Eval must only be called on bound
// expressions.
type Expr interface {
	// ResultType returns the inferred result kind of a bound expression.
	ResultType() types.Kind
	// Eval evaluates the expression against a row.
	Eval(row types.Row) (types.Value, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// ColRef is a reference to a column. The parser produces unbound refs
// (Index == -1); Bind resolves Index and Type against a schema.
type ColRef struct {
	Table string
	Name  string
	Index int
	Type  types.Kind
}

// NewColRef returns an unbound column reference.
func NewColRef(table, name string) *ColRef {
	return &ColRef{Table: table, Name: name, Index: -1}
}

// NewBoundColRef returns a column reference already resolved to a
// position and type; used by the planner when synthesizing expressions.
func NewBoundColRef(index int, typ types.Kind, name string) *ColRef {
	return &ColRef{Name: name, Index: index, Type: typ}
}

// ResultType implements Expr.
func (c *ColRef) ResultType() types.Kind { return c.Type }

// Eval implements Expr.
func (c *ColRef) Eval(row types.Row) (types.Value, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return types.Null, fmt.Errorf("unbound or out-of-range column reference %s (index %d, row width %d)", c.String(), c.Index, len(row))
	}
	return row[c.Index], nil
}

// String implements Expr. An unbound reference is the parser's and
// prints as SQL source, quoted where the lexer needs it; a bound one
// prints its name as the label it is (the planner names synthesized
// columns after what they hold: COUNT(*)).
func (c *ColRef) String() string {
	if c.Index < 0 {
		if c.Table != "" {
			return QuoteIdent(c.Table) + "." + QuoteIdent(c.Name)
		}
		return QuoteIdent(c.Name)
	}
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	if c.Name != "" {
		return c.Name
	}
	return "$" + strconv.Itoa(c.Index)
}

// Const is a literal value.
type Const struct {
	Val types.Value
}

// NewConst wraps a value as a constant expression.
func NewConst(v types.Value) *Const { return &Const{Val: v} }

// ResultType implements Expr.
func (c *Const) ResultType() types.Kind { return c.Val.Kind() }

// Eval implements Expr.
func (c *Const) Eval(types.Row) (types.Value, error) { return c.Val, nil }

// String implements Expr.
func (c *Const) String() string { return c.Val.SQL() }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, grouped by family.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
	OpConcat
)

// String returns the SQL spelling of the operator.
func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpLike:
		return "LIKE"
	case OpConcat:
		return "||"
	default:
		return "BinOp(" + strconv.Itoa(int(o)) + ")"
	}
}

// Comparison reports whether the operator is a comparison (yields BOOL).
func (o BinOp) Comparison() bool { return o >= OpEq && o <= OpGe }

// Arithmetic reports whether the operator is numeric arithmetic.
func (o BinOp) Arithmetic() bool { return o <= OpMod }

// Logical reports whether the operator is AND/OR.
func (o BinOp) Logical() bool { return o == OpAnd || o == OpOr }

// Commutes returns (flipped operator, true) if a cmp b == b flip(cmp) a.
func (o BinOp) Commutes() (BinOp, bool) {
	switch o {
	case OpEq, OpNe, OpAdd, OpMul, OpAnd, OpOr:
		return o, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	default:
		return o, false
	}
}

// Binary is a binary operation node.
type Binary struct {
	Op   BinOp
	L, R Expr
	typ  types.Kind
}

// NewBinary builds a binary operation.
func NewBinary(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// ResultType implements Expr.
func (b *Binary) ResultType() types.Kind { return b.typ }

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg UnOp = iota // -x
	OpNot             // NOT x
)

// String returns the SQL spelling of the operator.
func (o UnOp) String() string {
	if o == OpNeg {
		return "-"
	}
	return "NOT "
}

// Unary is a unary operation node.
type Unary struct {
	Op  UnOp
	E   Expr
	typ types.Kind
}

// NewUnary builds a unary operation.
func NewUnary(op UnOp, e Expr) *Unary { return &Unary{Op: op, E: e} }

// ResultType implements Expr.
func (u *Unary) ResultType() types.Kind { return u.typ }

// String implements Expr.
func (u *Unary) String() string { return "(" + u.Op.String() + u.E.String() + ")" }

// IsNull tests x IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// ResultType implements Expr.
func (n *IsNull) ResultType() types.Kind { return types.KindBool }

// String implements Expr.
func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// InList tests x [NOT] IN (e1, e2, ...). When every list element is a
// constant, membership is evaluated against a lazily-built set, so large
// shipped key lists (semijoins) probe in O(log n) per row.
type InList struct {
	E      Expr
	List   []Expr
	Negate bool

	// setHasNull sits in Negate's padding, which keeps the node in the
	// allocator's 80-byte class.
	setHasNull bool
	setOnce    sync.Once
	set        []hashedValue // ordered by h; nil unless every element is a constant
}

// hashedValue is one constant of an InList's set under its hash.
type hashedValue struct {
	h uint64
	v types.Value
}

// buildSet materializes the constant list as its non-NULL values ordered
// by hash, in one allocation; set stays nil when any element is not a
// constant.
func (n *InList) buildSet() {
	if len(n.List) < 8 {
		return // linear scan is faster for tiny lists
	}
	set := make([]hashedValue, 0, len(n.List))
	hasNull := false
	for _, e := range n.List {
		c, ok := e.(*Const)
		if !ok {
			return
		}
		if c.Val.IsNull() {
			hasNull = true
			continue
		}
		set = append(set, hashedValue{c.Val.Hash(0), c.Val})
	}
	slices.SortFunc(set, func(a, b hashedValue) int { return cmp.Compare(a.h, b.h) })
	n.set, n.setHasNull = set, hasNull
}

// contains reports whether a non-NULL value of the set equals v.
func (n *InList) contains(v types.Value) bool {
	h := v.Hash(0)
	i, _ := slices.BinarySearchFunc(n.set, h, func(e hashedValue, h uint64) int { return cmp.Compare(e.h, h) })
	for ; i < len(n.set) && n.set[i].h == h; i++ {
		if cand := n.set[i].v; comparable(v.Kind(), cand.Kind()) && v.Compare(cand) == 0 {
			return true
		}
	}
	return false
}

// ResultType implements Expr.
func (n *InList) ResultType() types.Kind { return types.KindBool }

// String implements Expr.
func (n *InList) String() string {
	parts := make([]string, len(n.List))
	for i, e := range n.List {
		parts[i] = e.String()
	}
	op := "IN"
	if n.Negate {
		op = "NOT IN"
	}
	return "(" + n.E.String() + " " + op + " (" + strings.Join(parts, ", ") + "))"
}

// When is one WHEN...THEN arm of a CASE expression.
type When struct {
	Cond Expr
	Then Expr
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END. When Operand
// is nil the WHEN conditions are boolean predicates (searched CASE).
type Case struct {
	Operand Expr
	Whens   []When
	Else    Expr
	typ     types.Kind
}

// ResultType implements Expr.
func (c *Case) ResultType() types.Kind { return c.typ }

// String implements Expr.
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		fmt.Fprintf(&b, " %s", c.Operand)
	}
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// Cast is CAST(e AS type).
type Cast struct {
	E  Expr
	To types.Kind
}

// ResultType implements Expr.
func (c *Cast) ResultType() types.Kind { return c.To }

// String implements Expr.
func (c *Cast) String() string { return "CAST(" + c.E.String() + " AS " + c.To.String() + ")" }

// Call is a scalar function call. fn is resolved during Bind.
type Call struct {
	Name string
	Args []Expr
	fn   *builtin
	typ  types.Kind
}

// NewCall builds an unbound scalar function call.
func NewCall(name string, args ...Expr) *Call {
	return &Call{Name: strings.ToUpper(name), Args: args}
}

// ResultType implements Expr.
func (c *Call) ResultType() types.Kind { return c.typ }

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "AggKind(" + strconv.Itoa(int(a)) + ")"
	}
}

// AggKindFromName resolves a function name to an aggregate kind.
func AggKindFromName(name string) (AggKind, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "AVG":
		return AggAvg, true
	default:
		return 0, false
	}
}

// AggCall is an aggregate function call appearing in a SELECT or HAVING
// expression. It cannot be evaluated row-at-a-time; the planner extracts
// AggCalls into an aggregation operator and replaces them with column
// references over the aggregate's output.
type AggCall struct {
	Kind     AggKind
	Arg      Expr // nil for COUNT(*)
	Distinct bool
	typ      types.Kind
}

// ResultType implements Expr.
func (a *AggCall) ResultType() types.Kind { return a.typ }

// Eval implements Expr; aggregate calls are not row-evaluable.
func (a *AggCall) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("aggregate %s evaluated outside an aggregation context", a)
}

// String implements Expr.
func (a *AggCall) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return a.Kind.String() + "(" + arg + ")"
}
