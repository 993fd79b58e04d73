package sql

import (
	"fmt"
	"strconv"
	"strings"

	"gis/internal/expr"
	"gis/internal/types"
)

// Parser turns SQL text into statement ASTs.
type Parser struct {
	toks   []Token
	pos    int
	params []types.Value
	nparam int
	// depth is how deep in the statement's tree the parser stands.
	depth int
}

// maxDepth bounds how deep a statement's tree may grow: parentheses,
// NOT and sign chains, subqueries and derived tables nest it, and every
// further operand of a left-deep operator chain (a AND b AND c ...) adds
// a level. Everything downstream — binding, folding, printing, the wire
// codec, which refuses deeper trees itself — walks the tree recursively,
// and a goroutine stack overflow is fatal to the process, not an error.
const maxDepth = 10000

// deeper steps one level down; a function that calls it restores the
// depth it started at with `defer p.ascend(p.depth)`.
func (p *Parser) deeper() error {
	if p.depth++; p.depth > maxDepth {
		return p.errorf("statement nests deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *Parser) ascend(depth int) { p.depth = depth }

// Parse parses a single statement (an optional trailing semicolon is
// allowed). Positional ? parameters are substituted from params in order.
func Parse(src string, params ...types.Value) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, params: params}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after end of statement", p.peek())
	}
	if p.nparam < len(params) {
		return nil, fmt.Errorf("statement uses %d parameters but %d were supplied", p.nparam, len(params))
	}
	return stmt, nil
}

// ParseSelect parses src and requires it to be a SELECT.
func ParseSelect(src string, params ...types.Value) (*SelectStmt, error) {
	stmt, err := Parse(src, params...)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("expected a SELECT statement, got %T", stmt)
	}
	return sel, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) peek() Token {
	if p.atEOF() {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.peek()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	t := p.peek()
	loc := "end of input"
	if t.Kind != TokEOF {
		loc = fmt.Sprintf("line %d col %d", t.Line, t.Col)
	}
	return fmt.Errorf("parse error at %s: %s", loc, fmt.Sprintf(format, args...))
}

// acceptKeyword consumes kw if it is next and reports whether it did.
func (p *Parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, found %s", op, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %s", t)
	}
	p.pos++
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected a statement, found %s", t)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		p.pos++
		analyze := p.acceptKeyword("ANALYZE")
		defer p.ascend(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.Text)
	}
}

// parseSelect parses a full SELECT including UNION chains and trailing
// ORDER BY / LIMIT / OFFSET (which attach to the head of the chain).
func (p *Parser) parseSelect() (*SelectStmt, error) {
	head, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	cur := head
	for p.acceptKeyword("UNION") {
		all := p.acceptKeyword("ALL")
		nxt, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = nxt
		cur.UnionAll = all
		cur = nxt
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			head.OrderBy = append(head.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		head.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		head.Offset = n
	}
	return head, nil
}

func (p *Parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.Kind != TokInt {
		return 0, p.errorf("expected integer literal, found %s", t)
	}
	p.pos++
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.Text)
	}
	return n, nil
}

// parseSelectCore parses SELECT ... [FROM ... WHERE ... GROUP BY ...
// HAVING ...] without set operations or ORDER BY/LIMIT.
func (p *Parser) parseSelectCore() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1, Offset: 0}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*" or "ident.*"
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	if p.peek().Kind == TokIdent && p.peekAt(1).Kind == TokOp && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == TokOp && p.peekAt(2).Text == "*" {
		table := p.next().Text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseFrom parses a FROM clause: table items combined left-associatively
// with comma (cross join) and JOIN operators.
func (p *Parser) parseFrom() (TableExpr, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.acceptOp(",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Kind: JoinCross, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKeyword("JOIN"):
			kind = JoinInner
		case p.peek().Kind == TokKeyword && p.peek().Text == "INNER":
			p.pos++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinInner
		case p.peek().Kind == TokKeyword && p.peek().Text == "LEFT":
			p.pos++
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.peek().Kind == TokKeyword && p.peek().Text == "RIGHT":
			p.pos++
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinRight
		case p.peek().Kind == TokKeyword && p.peek().Text == "CROSS":
			p.pos++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: kind, L: left, R: right}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.acceptOp("(") {
		defer p.ascend(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		// Derived table or parenthesized join.
		if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			p.acceptKeyword("AS")
			alias, err := p.expectIdent()
			if err != nil {
				return nil, fmt.Errorf("derived table requires an alias: %w", err)
			}
			return &SubqueryTable{Select: sub, Alias: alias}, nil
		}
		inner, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// ---- expression parsing (precedence climbing) ----

func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for p.acceptKeyword("OR") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinary(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for {
		// Stop at the AND of a BETWEEN; parsePredicate consumes those
		// before we ever get here, so a bare AND keyword is logical.
		if !p.acceptKeyword("AND") {
			return left, nil
		}
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinary(expr.OpAnd, left, right)
	}
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		defer p.ascend(p.depth)
		if err := p.deeper(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewUnary(expr.OpNot, inner), nil
	}
	return p.parsePredicate()
}

var comparisonOps = map[string]expr.BinOp{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *Parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for {
		// Each turn wraps left in one more node (a = b = c, x IS NULL IS
		// NULL ...).
		if err := p.deeper(); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.Kind == TokOp {
			if op, ok := comparisonOps[t.Text]; ok {
				p.pos++
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = expr.NewBinary(op, left, right)
				continue
			}
		}
		if t.Kind == TokKeyword {
			switch t.Text {
			case "IS":
				p.pos++
				negate := p.acceptKeyword("NOT")
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				left = &expr.IsNull{E: left, Negate: negate}
				continue
			case "LIKE":
				p.pos++
				right, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = expr.NewBinary(expr.OpLike, left, right)
				continue
			case "IN":
				p.pos++
				e, err := p.parseInRHS(left, false)
				if err != nil {
					return nil, err
				}
				left = e
				continue
			case "BETWEEN":
				p.pos++
				lo, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				left = expr.NewBinary(expr.OpAnd,
					expr.NewBinary(expr.OpGe, left, lo),
					expr.NewBinary(expr.OpLe, left, hi))
				continue
			case "NOT":
				// x NOT LIKE / NOT IN / NOT BETWEEN
				if nt := p.peekAt(1); nt.Kind == TokKeyword {
					switch nt.Text {
					case "LIKE":
						p.pos += 2
						right, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						left = expr.NewUnary(expr.OpNot, expr.NewBinary(expr.OpLike, left, right))
						continue
					case "IN":
						p.pos += 2
						e, err := p.parseInRHS(left, true)
						if err != nil {
							return nil, err
						}
						left = e
						continue
					case "BETWEEN":
						p.pos += 2
						lo, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						if err := p.expectKeyword("AND"); err != nil {
							return nil, err
						}
						hi, err := p.parseAdditive()
						if err != nil {
							return nil, err
						}
						left = expr.NewUnary(expr.OpNot, expr.NewBinary(expr.OpAnd,
							expr.NewBinary(expr.OpGe, left, lo),
							expr.NewBinary(expr.OpLe, left, hi)))
						continue
					}
				}
				return left, nil
			}
		}
		return left, nil
	}
}

// parseInRHS parses the right-hand side of [NOT] IN: either an expression
// list or a subquery.
func (p *Parser) parseInRHS(operand expr.Expr, negate bool) (expr.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &expr.Subquery{Stmt: sub, Mode: expr.SubIn, Operand: operand, Negate: negate}, nil
	}
	var list []expr.Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &expr.InList{E: operand, List: list, Negate: negate}, nil
}

func (p *Parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for {
		t := p.peek()
		if t.Kind != TokOp {
			return left, nil
		}
		var op expr.BinOp
		switch t.Text {
		case "+":
			op = expr.OpAdd
		case "-":
			op = expr.OpSub
		case "||":
			op = expr.OpConcat
		default:
			return left, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinary(op, left, right)
	}
}

func (p *Parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for {
		t := p.peek()
		if t.Kind != TokOp {
			return left, nil
		}
		var op expr.BinOp
		switch t.Text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		case "%":
			op = expr.OpMod
		default:
			return left, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = expr.NewBinary(op, left, right)
	}
}

// parseUnary is on every path back into parseExpr — a parenthesis, a
// subquery, a function argument, a CASE arm — so the level it takes
// covers those as well as its own sign chains.
func (p *Parser) parseUnary() (expr.Expr, error) {
	defer p.ascend(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	if p.acceptOp("-") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals immediately so "-3" is a Const.
		if c, ok := inner.(*expr.Const); ok {
			switch c.Val.Kind() {
			case types.KindInt:
				return expr.NewConst(types.NewInt(-c.Val.Int())), nil
			case types.KindFloat:
				// 0 - f, not -f: SQL has no negative zero, and "-0"
				// would not print as it parses.
				return expr.NewConst(types.NewFloat(0 - c.Val.Float())), nil
			default:
				// Non-numeric literal: leave the unary for the binder.
			}
		}
		return expr.NewUnary(expr.OpNeg, inner), nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokInt:
		p.pos++
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return expr.NewConst(types.NewInt(n)), nil

	case TokFloat:
		p.pos++
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", t.Text)
		}
		return expr.NewConst(types.NewFloat(f)), nil

	case TokString:
		p.pos++
		return expr.NewConst(types.NewString(t.Text)), nil

	case TokParam:
		p.pos++
		if p.nparam >= len(p.params) {
			return nil, p.errorf("missing value for parameter %d", p.nparam+1)
		}
		v := p.params[p.nparam]
		p.nparam++
		return expr.NewConst(v), nil

	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return expr.NewConst(types.Null), nil
		case "TRUE":
			p.pos++
			return expr.NewConst(types.NewBool(true)), nil
		case "FALSE":
			p.pos++
			return expr.NewConst(types.NewBool(false)), nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &expr.Subquery{Stmt: sub, Mode: expr.SubExists}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)

	case TokIdent:
		// Function call?
		if p.peekAt(1).Kind == TokOp && p.peekAt(1).Text == "(" {
			return p.parseCall()
		}
		p.pos++
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return expr.NewColRef(t.Text, col), nil
		}
		return expr.NewColRef("", t.Text), nil

	case TokOp:
		if t.Text == "(" {
			p.pos++
			// Scalar subquery?
			if p.peek().Kind == TokKeyword && p.peek().Text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &expr.Subquery{Stmt: sub, Mode: expr.SubScalar}, nil
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	default:
		// TokEOF and anything unexpected fall through to the error.
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

func (p *Parser) parseCall() (expr.Expr, error) {
	name := p.next().Text
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if kind, isAgg := expr.AggKindFromName(name); isAgg {
		distinct := p.acceptKeyword("DISTINCT")
		if p.acceptOp("*") {
			if kind != expr.AggCount {
				return nil, p.errorf("%s(*) is not valid", strings.ToUpper(name))
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &expr.AggCall{Kind: expr.AggCount}, nil
		}
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &expr.AggCall{Kind: kind, Arg: arg, Distinct: distinct}, nil
	}
	var args []expr.Expr
	if !p.acceptOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return expr.NewCall(name, args...), nil
}

func (p *Parser) parseCase() (expr.Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &expr.Case{}
	if !(p.peek().Kind == TokKeyword && p.peek().Text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = els
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (expr.Expr, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	inner, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typeName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	kind, ok := types.KindFromName(typeName)
	if !ok {
		return nil, p.errorf("unknown type %q in CAST", typeName)
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &expr.Cast{E: inner, To: kind}, nil
}

// ParseExpr parses a bare SQL expression (e.g. a partition predicate in
// a catalog config file).
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after expression", p.peek())
	}
	return e, nil
}
