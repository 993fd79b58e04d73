package expr

import (
	"fmt"
	"math"

	"gis/internal/types"
)

// Eval implements Expr for Binary with SQL tri-state NULL semantics:
// comparisons and arithmetic over NULL yield NULL; AND/OR use three-valued
// logic (NULL AND false = false, NULL OR true = true).
func (b *Binary) Eval(row types.Row) (types.Value, error) {
	if b.Op.Logical() {
		return b.evalLogical(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	switch {
	case b.Op.Comparison():
		return evalComparison(b.Op, l, r)
	case b.Op.Arithmetic():
		return evalArith(b.Op, l, r)
	case b.Op == OpLike:
		return evalLike(l, r)
	case b.Op == OpConcat:
		ls, err := l.Coerce(types.KindString)
		if err != nil {
			return types.Null, err
		}
		rs, err := r.Coerce(types.KindString)
		if err != nil {
			return types.Null, err
		}
		return types.NewString(ls.Str() + rs.Str()), nil
	}
	return types.Null, fmt.Errorf("unhandled binary operator %s", b.Op)
}

func (b *Binary) evalLogical(row types.Row) (types.Value, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	// Short-circuit where three-valued logic allows it.
	if !l.IsNull() {
		lb, err := truthy(l)
		if err != nil {
			return types.Null, err
		}
		if b.Op == OpAnd && !lb {
			return types.NewBool(false), nil
		}
		if b.Op == OpOr && lb {
			return types.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if r.IsNull() {
		// Whatever l is: a non-NULL l passed truthy above and, the
		// short-circuit not having fired, does not decide.
		return types.Null, nil
	}
	rb, err := truthy(r)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() {
		if b.Op == OpAnd && !rb {
			return types.NewBool(false), nil
		}
		if b.Op == OpOr && rb {
			return types.NewBool(true), nil
		}
		return types.Null, nil
	}
	lb, err := truthy(l)
	if err != nil {
		return types.Null, err
	}
	if b.Op == OpAnd {
		return types.NewBool(lb && rb), nil
	}
	return types.NewBool(lb || rb), nil
}

func truthy(v types.Value) (bool, error) {
	switch v.Kind() {
	case types.KindBool:
		return v.Bool(), nil
	case types.KindInt:
		return v.Int() != 0, nil
	default:
		return false, fmt.Errorf("expected BOOL operand, got %s", v.Kind())
	}
}

func evalComparison(op BinOp, l, r types.Value) (types.Value, error) {
	if !comparable(l.Kind(), r.Kind()) {
		return types.Null, fmt.Errorf("cannot compare %s with %s", l.Kind(), r.Kind())
	}
	c := l.Compare(r)
	switch op {
	case OpEq:
		return types.NewBool(c == 0), nil
	case OpNe:
		return types.NewBool(c != 0), nil
	case OpLt:
		return types.NewBool(c < 0), nil
	case OpLe:
		return types.NewBool(c <= 0), nil
	case OpGt:
		return types.NewBool(c > 0), nil
	case OpGe:
		return types.NewBool(c >= 0), nil
	default:
		return types.Null, fmt.Errorf("not a comparison: %s", op)
	}
}

func comparable(a, b types.Kind) bool {
	if a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}

func evalArith(op BinOp, l, r types.Value) (types.Value, error) {
	if !l.Kind().Numeric() || !r.Kind().Numeric() {
		return types.Null, fmt.Errorf("arithmetic %s over non-numeric operands %s, %s", op, l.Kind(), r.Kind())
	}
	if l.Kind() == types.KindInt && r.Kind() == types.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return types.NewInt(a + b), nil
		case OpSub:
			return types.NewInt(a - b), nil
		case OpMul:
			return types.NewInt(a * b), nil
		case OpDiv:
			if b == 0 {
				return types.Null, fmt.Errorf("division by zero")
			}
			return types.NewInt(a / b), nil
		case OpMod:
			if b == 0 {
				return types.Null, fmt.Errorf("modulo by zero")
			}
			return types.NewInt(a % b), nil
		default:
			// Not integer arithmetic: fall through to the float path,
			// whose default reports the error.
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return types.NewFloat(a + b), nil
	case OpSub:
		return types.NewFloat(a - b), nil
	case OpMul:
		return types.NewFloat(a * b), nil
	case OpDiv:
		if b == 0 {
			return types.Null, fmt.Errorf("division by zero")
		}
		return types.NewFloat(a / b), nil
	case OpMod:
		if b == 0 {
			return types.Null, fmt.Errorf("modulo by zero")
		}
		return types.NewFloat(math.Mod(a, b)), nil
	default:
		return types.Null, fmt.Errorf("not arithmetic: %s", op)
	}
}

// evalLike implements SQL LIKE with % and _ wildcards (case-sensitive).
func evalLike(l, r types.Value) (types.Value, error) {
	if l.Kind() != types.KindString || r.Kind() != types.KindString {
		return types.Null, fmt.Errorf("LIKE requires STRING operands")
	}
	return types.NewBool(likeMatch(l.Str(), r.Str())), nil
}

// likeMatch matches s against a LIKE pattern using iterative backtracking
// (the classic two-pointer wildcard algorithm, with % as * and _ as ?).
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// Eval implements Expr for Unary.
func (u *Unary) Eval(row types.Row) (types.Value, error) {
	v, err := u.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	switch u.Op {
	case OpNeg:
		switch v.Kind() {
		case types.KindInt:
			return types.NewInt(-v.Int()), nil
		case types.KindFloat:
			return types.NewFloat(-v.Float()), nil
		default:
			return types.Null, fmt.Errorf("cannot negate %s", v.Kind())
		}
	case OpNot:
		b, err := truthy(v)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(!b), nil
	}
	return types.Null, fmt.Errorf("unhandled unary operator %d", u.Op)
}

// Eval implements Expr for IsNull.
func (n *IsNull) Eval(row types.Row) (types.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != n.Negate), nil
}

// Eval implements Expr for InList with SQL semantics: if no element
// matches and any element (or the operand) is NULL, the result is NULL.
func (n *InList) Eval(row types.Row) (types.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	n.setOnce.Do(n.buildSet)
	if n.set != nil {
		if n.contains(v) {
			return types.NewBool(!n.Negate), nil
		}
		if n.setHasNull {
			return types.Null, nil
		}
		return types.NewBool(n.Negate), nil
	}
	sawNull := false
	for _, e := range n.List {
		ev, err := e.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if ev.IsNull() {
			sawNull = true
			continue
		}
		if comparable(v.Kind(), ev.Kind()) && v.Compare(ev) == 0 {
			return types.NewBool(!n.Negate), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(n.Negate), nil
}

// Eval implements Expr for Case.
func (c *Case) Eval(row types.Row) (types.Value, error) {
	var operand types.Value
	if c.Operand != nil {
		var err error
		operand, err = c.Operand.Eval(row)
		if err != nil {
			return types.Null, err
		}
	}
	for _, w := range c.Whens {
		cv, err := w.Cond.Eval(row)
		if err != nil {
			return types.Null, err
		}
		var hit bool
		if c.Operand != nil {
			hit = !operand.IsNull() && !cv.IsNull() && operand.Compare(cv) == 0
		} else if !cv.IsNull() {
			hit, err = truthy(cv)
			if err != nil {
				return types.Null, err
			}
		}
		if hit {
			v, err := w.Then.Eval(row)
			if err != nil {
				return types.Null, err
			}
			return coerceTo(v, c.typ)
		}
	}
	if c.Else != nil {
		v, err := c.Else.Eval(row)
		if err != nil {
			return types.Null, err
		}
		return coerceTo(v, c.typ)
	}
	return types.Null, nil
}

func coerceTo(v types.Value, k types.Kind) (types.Value, error) {
	if k == types.KindNull || v.IsNull() || v.Kind() == k {
		return v, nil
	}
	return v.Coerce(k)
}

// Eval implements Expr for Cast.
func (c *Cast) Eval(row types.Row) (types.Value, error) {
	v, err := c.E.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return v.Coerce(c.To)
}

// Eval implements Expr for Call.
func (c *Call) Eval(row types.Row) (types.Value, error) {
	if c.fn == nil {
		return types.Null, fmt.Errorf("call to unbound function %s", c.Name)
	}
	args := make([]types.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	if c.fn.nullPropagating {
		for _, a := range args {
			if a.IsNull() {
				return types.Null, nil
			}
		}
	}
	return c.fn.eval(args)
}

// EvalBool evaluates a predicate and applies SQL WHERE semantics: a row
// passes only if the predicate is TRUE (NULL and FALSE both reject).
func EvalBool(e Expr, row types.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return truthy(v)
}
