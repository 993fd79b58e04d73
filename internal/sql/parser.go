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
	// slots, when not nil, is as long as params: slots[i] is the
	// constant parameter i was read into (ParseSlots).
	slots []*expr.Const
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
	stmt, _, err := parse(src, params, nil, false)
	return stmt, err
}

// ParseSlots is Parse that also reports which constants came from
// parameters: slots[i] is the constant parameter i was read into. One
// that folds into a constant of its own (-?) is not in the tree. slots is
// carved from buf when it has room.
func ParseSlots(src string, buf []*expr.Const, params ...types.Value) (stmt Statement, slots []*expr.Const, err error) {
	if cap(buf) < len(params) {
		buf = make([]*expr.Const, len(params))
	}
	slots = buf[:len(params)]
	clear(slots)
	stmt, _, err = parse(src, params, slots, false)
	return stmt, slots, err
}

// ParseExpr parses a bare SQL expression (e.g. a partition predicate in
// a catalog config file).
func ParseExpr(src string) (expr.Expr, error) {
	_, e, err := parse(src, nil, nil, true)
	return e, err
}

// parse reads src whole: as one statement, or, when bare, as one
// expression with no trailing semicolon. Every parameter must be used.
func parse(src string, params []types.Value, slots []*expr.Const, bare bool) (Statement, expr.Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, nil, err
	}
	p := &Parser{toks: toks, params: params, slots: slots}
	var stmt Statement
	var e expr.Expr
	after := "end of statement"
	if bare {
		e, err = p.parseExpr()
		after = "expression"
	} else if stmt, err = p.parseStatement(); err == nil {
		p.acceptOp(";")
	}
	switch {
	case err != nil:
		return nil, nil, err
	case !p.atEOF():
		return nil, nil, p.errorf("unexpected %s after %s", p.peek(), after)
	case p.nparam < len(params):
		return nil, nil, fmt.Errorf("statement uses %d parameters but %d were supplied", p.nparam, len(params))
	}
	return stmt, e, nil
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

// atKeyword reports whether kw is next.
func (p *Parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

// acceptKeyword consumes kw if it is next and reports whether it did.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
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

// listBuf is how many items a list collects on the parser's stack before
// it grows on the heap.
const listBuf = 8

// parseList reads one or more comma-separated items. They are collected
// on the stack and copied out once, at the list's length.
func parseList[T any](p *Parser, item func() (T, error)) ([]T, error) {
	var buf [listBuf]T
	out, err := collectList(p, item, buf[:0])
	if err != nil {
		return nil, err
	}
	return append(make([]T, 0, len(out)), out...), nil
}

// collectList appends one or more comma-separated items to out, which
// grows on the heap past its capacity.
func collectList[T any](p *Parser, item func() (T, error), out []T) ([]T, error) {
	for {
		v, err := item()
		if err != nil {
			return nil, err
		}
		if out = append(out, v); !p.acceptOp(",") {
			return out, nil
		}
	}
}

// parseSubquery reads the rest of a parenthesised SELECT whose "(" has
// been read: the statement and its ")".
func (p *Parser) parseSubquery() (*SelectStmt, error) {
	sub, err := p.parseSelect()
	if err == nil {
		err = p.expectOp(")")
	}
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// parseAlias reads an optional "[AS] name"; after AS, or when required,
// the name must follow.
func (p *Parser) parseAlias(required bool) (string, error) {
	if p.acceptKeyword("AS") || required || p.peek().Kind == TokIdent {
		return p.expectIdent()
	}
	return "", nil
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
		if head.OrderBy, err = parseList(p, p.parseOrderItem); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("LIMIT") {
		if head.Limit, err = p.parseIntLiteral(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("OFFSET") {
		if head.Offset, err = p.parseIntLiteral(); err != nil {
			return nil, err
		}
	}
	return head, nil
}

func (p *Parser) parseOrderItem() (o OrderItem, err error) {
	params := p.nparam
	if o.Expr, err = p.parseExpr(); err != nil {
		return o, err
	}
	c, isConst := o.Expr.(*expr.Const)
	o.Positional = isConst && c.Val.Kind() == types.KindInt && p.nparam == params
	if o.Desc = p.acceptKeyword("DESC"); !o.Desc {
		p.acceptKeyword("ASC")
	}
	return o, nil
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
	var err error
	if sel.Items, err = parseList(p, p.parseSelectItem); err != nil {
		return nil, err
	}
	if p.acceptKeyword("FROM") {
		if sel.From, err = p.parseFrom(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WHERE") {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if sel.GroupBy, err = parseList(p, p.parseExpr); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("HAVING") {
		if sel.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
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
		p.pos += 2 // . *
		return SelectItem{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.parseAlias(false)
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e, Alias: alias}, nil
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

// joinOps are the join operators by their first keyword. Each but JOIN
// itself goes on to JOIN, past an optional OUTER where outer is set.
var joinOps = map[string]struct {
	kind  JoinKind
	outer bool
}{
	"JOIN":  {JoinInner, false},
	"INNER": {JoinInner, false},
	"LEFT":  {JoinLeft, true},
	"RIGHT": {JoinRight, true},
	"CROSS": {JoinCross, false},
}

func (p *Parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		op, ok := joinOps[t.Text]
		if t.Kind != TokKeyword || !ok {
			return left, nil
		}
		p.pos++
		if t.Text != "JOIN" {
			if op.outer {
				p.acceptKeyword("OUTER")
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Kind: op.kind, L: left, R: right}
		if op.kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if join.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
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
		if p.atKeyword("SELECT") {
			sub, err := p.parseSubquery()
			if err != nil {
				return nil, err
			}
			alias, err := p.parseAlias(true)
			if err != nil {
				return nil, fmt.Errorf("derived table requires an alias: %w", err)
			}
			return &SubqueryTable{Select: sub, Alias: alias}, nil
		}
		inner, err := p.parseFrom()
		if err == nil {
			err = p.expectOp(")")
		}
		if err != nil {
			return nil, err
		}
		return inner, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias, err := p.parseAlias(false)
	if err != nil {
		return nil, err
	}
	return &TableRef{Name: name, Alias: alias}, nil
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
		if ins.Columns, err = parseList(p, p.expectIdent); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if ins.Rows, err = parseList(p, p.parseRow); err != nil {
		return nil, err
	}
	return ins, nil
}

// parseRow reads one parenthesised row of VALUES.
func (p *Parser) parseRow() ([]expr.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	row, err := parseList(p, p.parseExpr)
	if err == nil {
		err = p.expectOp(")")
	}
	if err != nil {
		return nil, err
	}
	return row, nil
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
	if upd.Set, err = parseList(p, p.parseAssignment); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		if upd.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return upd, nil
}

func (p *Parser) parseAssignment() (Assignment, error) {
	col, err := p.expectIdent()
	if err != nil {
		return Assignment{}, err
	}
	if err := p.expectOp("="); err != nil {
		return Assignment{}, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{Column: col, Value: val}, nil
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
		if del.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

// ---- expressions: one loop over a precedence table ----
//
// Operators bind loosest first: OR, AND, NOT, the predicates, + - ||,
// * / %, then the signs. The four binary levels are one left-deep loop,
// parseBinary, over binaryLevels; NOT, the predicates and the signs are
// the special levels parseNot, parsePredicate and parseUnary.

// binaryOp is an operator token and the node it makes.
type binaryOp struct {
	kind TokenKind
	text string
	op   expr.BinOp
}

const (
	orLevel = iota
	andLevel
	addLevel
	mulLevel
)

// binaryLevels holds each binary level's operators, loosest first.
var binaryLevels = [...][]binaryOp{
	orLevel:  {{TokKeyword, "OR", expr.OpOr}},
	andLevel: {{TokKeyword, "AND", expr.OpAnd}},
	addLevel: {{TokOp, "+", expr.OpAdd}, {TokOp, "-", expr.OpSub}, {TokOp, "||", expr.OpConcat}},
	mulLevel: {{TokOp, "*", expr.OpMul}, {TokOp, "/", expr.OpDiv}, {TokOp, "%", expr.OpMod}},
}

var comparisonOps = []binaryOp{
	{TokOp, "=", expr.OpEq}, {TokOp, "<>", expr.OpNe}, {TokOp, "<", expr.OpLt},
	{TokOp, "<=", expr.OpLe}, {TokOp, ">", expr.OpGt}, {TokOp, ">=", expr.OpGe},
}

// matchOp reports which of ops t is.
func matchOp(ops []binaryOp, t Token) (expr.BinOp, bool) {
	for _, o := range ops {
		if t.Kind == o.kind && t.Text == o.text {
			return o.op, true
		}
	}
	return 0, false
}

func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseBinary(orLevel) }

// parseBinary reads a left-deep chain of level's operators; each further
// operand is one level deeper in the tree.
func (p *Parser) parseBinary(level int) (expr.Expr, error) {
	left, err := p.parseOperand(level)
	if err != nil {
		return nil, err
	}
	defer p.ascend(p.depth)
	for {
		op, ok := matchOp(binaryLevels[level], p.peek())
		if !ok {
			return left, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseOperand(level)
		if err != nil {
			return nil, err
		}
		left = expr.NewBinary(op, left, right)
	}
}

// parseOperand reads an operand of level's operators: the next tighter
// level.
func (p *Parser) parseOperand(level int) (expr.Expr, error) {
	switch level {
	case andLevel:
		return p.parseNot()
	case mulLevel:
		return p.parseUnary()
	default:
		return p.parseBinary(level + 1)
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

// parsePredicate reads an additive operand and the predicates after it,
// each wrapping what is read so far: a comparison, IS [NOT] NULL, or
// [NOT] LIKE, IN or BETWEEN, where NOT is a flag of the form it precedes.
func (p *Parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseBinary(addLevel)
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
		if op, ok := matchOp(comparisonOps, p.peek()); ok {
			p.pos++
			right, err := p.parseBinary(addLevel)
			if err != nil {
				return nil, err
			}
			left = expr.NewBinary(op, left, right)
			continue
		}
		if p.acceptKeyword("IS") {
			negate := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &expr.IsNull{E: left, Negate: negate}
			continue
		}
		form, skip := p.peek(), 1
		negate := p.atKeyword("NOT")
		if negate {
			form, skip = p.peekAt(1), 2
		}
		if form.Kind != TokKeyword || form.Text != "LIKE" && form.Text != "IN" && form.Text != "BETWEEN" {
			return left, nil
		}
		p.pos += skip
		var e expr.Expr
		switch form.Text {
		case "IN": // [NOT] IN carries its own Negate
			if left, err = p.parseInRHS(left, negate); err != nil {
				return nil, err
			}
			continue
		case "LIKE":
			right, err := p.parseBinary(addLevel)
			if err != nil {
				return nil, err
			}
			e = expr.NewBinary(expr.OpLike, left, right)
		default: // BETWEEN lo AND hi: the AND is the form's, not logical
			lo, err := p.parseBinary(addLevel)
			if err == nil {
				err = p.expectKeyword("AND")
			}
			if err != nil {
				return nil, err
			}
			hi, err := p.parseBinary(addLevel)
			if err != nil {
				return nil, err
			}
			e = expr.NewBinary(expr.OpAnd,
				expr.NewBinary(expr.OpGe, left, lo),
				expr.NewBinary(expr.OpLe, left, hi))
		}
		if negate {
			e = expr.NewUnary(expr.OpNot, e)
		}
		left = e
	}
}

// parseInRHS parses the right-hand side of [NOT] IN: either an expression
// list or a subquery.
func (p *Parser) parseInRHS(operand expr.Expr, negate bool) (expr.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.atKeyword("SELECT") {
		sub, err := p.parseSubquery()
		if err != nil {
			return nil, err
		}
		return &expr.Subquery{Stmt: sub, Mode: expr.SubIn, Operand: operand, Negate: negate}, nil
	}
	// An element that is one literal or parameter is read as its value
	// (inElem.e nil), collected on the stack as parseList collects, and
	// the list's constants are carved from one block.
	var buf [listBuf]inElem
	list, err := collectList(p, p.parseInElem, buf[:0])
	if err == nil {
		err = p.expectOp(")")
	}
	if err != nil {
		return nil, err
	}
	consts := 0
	for _, el := range list {
		if el.e == nil {
			consts++
		}
	}
	block := make([]expr.Const, 0, consts)
	exprs := make([]expr.Expr, len(list))
	for i, el := range list {
		if exprs[i] = el.e; el.e == nil {
			block = append(block, expr.Const{Val: el.v})
			exprs[i] = &block[len(block)-1]
			if el.param > 0 {
				p.slot(el.param-1, &block[len(block)-1])
			}
		}
	}
	return &expr.InList{E: operand, List: exprs, Negate: negate}, nil
}

// inElem is one element of an IN list as read: an expression, or, where
// e is nil, the value of a literal or parameter — parameter param-1 when
// param is not 0.
type inElem struct {
	e     expr.Expr
	v     types.Value
	param int
}

// slot records that parameter i was read into c.
func (p *Parser) slot(i int, c *expr.Const) {
	if p.slots != nil {
		p.slots[i] = c
	}
}

// parseInElem reads one element of an IN list: a literal or parameter
// that the element is all of as its value, anything else as parseExpr
// does.
func (p *Parser) parseInElem() (inElem, error) {
	if next := p.peekAt(1); next.Kind == TokOp && (next.Text == "," || next.Text == ")") {
		n := p.nparam
		if v, ok, err := p.literalValue(); ok {
			el := inElem{v: v}
			if p.nparam > n {
				el.param = p.nparam
			}
			return el, err
		}
	}
	e, err := p.parseExpr()
	return inElem{e: e}, err
}

// parseUnary is on every path back into parseExpr — a parenthesis, a
// subquery, a function argument, a CASE arm — so the level it takes
// covers those as well as its own sign chains.
func (p *Parser) parseUnary() (expr.Expr, error) {
	defer p.ascend(p.depth)
	if err := p.deeper(); err != nil {
		return nil, err
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	if !p.acceptOp("-") {
		return p.parsePrimary()
	}
	// Fold negative literals immediately so "-3" is a Const. An integer
	// literal is read with its sign, at the level its own parseUnary
	// would take, so that the least INT, whose magnitude is no INT, can
	// be written.
	if t := p.peek(); t.Kind == TokInt {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		p.pos++
		n, err := strconv.ParseUint(t.Text, 10, 64)
		if err != nil || n > 1<<63 {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return expr.NewConst(types.NewInt(-int64(n))), nil
	}
	inner, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
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

// literalValue reads the literal or parameter that is next, if one is,
// as its value: ok reports whether one was. An error is reported, as
// parsePrimary reports it, past the token that caused it.
func (p *Parser) literalValue() (v types.Value, ok bool, err error) {
	t := p.peek()
	switch {
	case t.Kind == TokInt:
		n, perr := strconv.ParseInt(t.Text, 10, 64)
		if p.pos++; perr != nil {
			return v, true, p.errorf("bad integer literal %q", t.Text)
		}
		return types.NewInt(n), true, nil
	case t.Kind == TokFloat:
		f, perr := strconv.ParseFloat(t.Text, 64)
		if p.pos++; perr != nil {
			return v, true, p.errorf("bad float literal %q", t.Text)
		}
		return types.NewFloat(f), true, nil
	case t.Kind == TokString:
		p.pos++
		return types.NewString(t.Text), true, nil
	case t.Kind == TokParam:
		if p.pos++; p.nparam >= len(p.params) {
			return v, true, p.errorf("missing value for parameter %d", p.nparam+1)
		}
		p.nparam++
		return p.params[p.nparam-1], true, nil
	case t.Kind == TokKeyword && (t.Text == "NULL" || t.Text == "TRUE" || t.Text == "FALSE"):
		p.pos++
		if t.Text == "NULL" {
			return types.Null, true, nil
		}
		return types.NewBool(t.Text == "TRUE"), true, nil
	}
	return v, false, nil
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	n := p.nparam
	if v, ok, err := p.literalValue(); err != nil {
		return nil, err
	} else if ok {
		c := expr.NewConst(v)
		if p.nparam > n {
			p.slot(n, c)
		}
		return c, nil
	}
	t := p.peek()
	switch t.Kind {
	case TokKeyword:
		switch t.Text {
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSubquery()
			if err != nil {
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
			if p.atKeyword("SELECT") {
				sub, err := p.parseSubquery()
				if err != nil {
					return nil, err
				}
				return &expr.Subquery{Stmt: sub, Mode: expr.SubScalar}, nil
			}
			inner, err := p.parseExpr()
			if err == nil {
				err = p.expectOp(")")
			}
			if err != nil {
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
		if err == nil {
			err = p.expectOp(")")
		}
		if err != nil {
			return nil, err
		}
		return &expr.AggCall{Kind: kind, Arg: arg, Distinct: distinct}, nil
	}
	var args []expr.Expr
	if !p.acceptOp(")") {
		var err error
		if args, err = parseList(p, p.parseExpr); err == nil {
			err = p.expectOp(")")
		}
		if err != nil {
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
	if !p.atKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err == nil {
			err = p.expectKeyword("THEN")
		}
		if err != nil {
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
	if err == nil {
		err = p.expectKeyword("AS")
	}
	if err != nil {
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
