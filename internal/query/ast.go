package query

import (
	"fmt"
	"strconv"
	"strings"
)

// expr is the expression AST.
type expr interface{ String() string }

// identExpr is a dotted field path. The parser numbers the statement's
// paths (Query.fields); slot is this one's number, which is how a Record
// is asked for the value.
type identExpr struct {
	path []string
	slot int
}

type literalExpr struct{ value any } // float64, string, bool, nil

type unaryExpr struct {
	op  string // "NOT", "-"
	sub expr
}

type binaryExpr struct {
	op   string // = != < <= > >= + - * / AND OR
	l, r expr
}

type callExpr struct {
	fn   string // COUNT SUM AVG MIN MAX LEN
	arg  expr   // nil for COUNT(*)
	star bool
	slot int // aggregates folded per group: index into Query.aggs
}

func (e identExpr) String() string   { return strings.Join(e.path, ".") }
func (e literalExpr) String() string { return fmt.Sprint(e.value) }
func (e unaryExpr) String() string   { return e.op + " " + e.sub.String() }
func (e binaryExpr) String() string {
	return "(" + e.l.String() + " " + e.op + " " + e.r.String() + ")"
}
func (e callExpr) String() string {
	if e.star {
		return e.fn + "(*)"
	}
	return e.fn + "(" + e.arg.String() + ")"
}

// selectItem is one output column.
type selectItem struct {
	expr expr
	name string // alias or derived
	eval evalFn // compiled per record; set when the statement does not aggregate
	fold foldFn // compiled per group; set when it does
}

// orderItem is one ORDER BY key.
type orderItem struct {
	expr expr
	desc bool
}

// Query is a parsed statement.
type Query struct {
	items     []selectItem
	namespace string
	where     expr
	groupBy   []expr
	orderBy   []orderItem
	limit     int // -1 = none

	fields [][]string // every field path named, indexed by identExpr.slot
	aggs   []callExpr // the select items' aggregates, indexed by callExpr.slot

	// The compiled forms, built once by Parse so that a cached
	// statement never walks its tree per record.
	conjs   []conjunct // where's AND-ed terms, in evaluation order
	group   []evalFn   // groupBy
	aggArgs []evalFn   // aggs' arguments; nil for COUNT(*)
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	fields [][]string
}

// bindAggs numbers the aggregate calls a select item folds per group:
// those reached through arithmetic and negation only. An aggregate
// inside another call's argument is evaluated per record instead.
func (q *Query) bindAggs(e expr) expr {
	switch t := e.(type) {
	case callExpr:
		if t.fn != "LEN" {
			t.slot = len(q.aggs)
			q.aggs = append(q.aggs, t)
		}
		return t
	case unaryExpr:
		t.sub = q.bindAggs(t.sub)
		return t
	case binaryExpr:
		t.l, t.r = q.bindAggs(t.l), q.bindAggs(t.r)
		return t
	}
	return e
}

// Parse parses one SELECT statement.
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("") && p.cur().kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input at %q", p.cur().text)
	}
	return q, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) atKeyword(k string) bool {
	return p.cur().kind == tokKeyword && (k == "" || p.cur().text == k)
}
func (p *parser) atSymbol(s string) bool {
	return p.cur().kind == tokSymbol && p.cur().text == s
}

func (p *parser) expectKeyword(k string) error {
	if !p.atKeyword(k) {
		return fmt.Errorf("query: expected %s, found %q", k, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		return fmt.Errorf("query: expected %q, found %q", s, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{limit: -1}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.items = append(q.items, item)
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, fmt.Errorf("query: expected namespace after FROM, found %q", p.cur().text)
	}
	q.namespace = p.cur().text
	p.advance()

	if p.atKeyword("WHERE") {
		p.advance()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.where = w
	}
	if p.atKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.groupBy = append(q.groupBy, e)
			if p.atSymbol(",") {
				p.advance()
				continue
			}
			break
		}
	}
	if p.atKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := orderItem{expr: e}
			if p.atKeyword("DESC") {
				item.desc = true
				p.advance()
			} else if p.atKeyword("ASC") {
				p.advance()
			}
			q.orderBy = append(q.orderBy, item)
			if p.atSymbol(",") {
				p.advance()
				continue
			}
			break
		}
	}
	if p.atKeyword("LIMIT") {
		p.advance()
		if p.cur().kind != tokNumber {
			return nil, fmt.Errorf("query: expected number after LIMIT")
		}
		n, err := strconv.Atoi(p.cur().text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: bad LIMIT %q", p.cur().text)
		}
		q.limit = n
		p.advance()
	}
	q.fields = p.fields
	for i := range q.items {
		q.items[i].expr = q.bindAggs(q.items[i].expr)
	}
	q.compile()
	return q, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{expr: e, name: e.String()}
	if p.atKeyword("AS") {
		p.advance()
		if p.cur().kind != tokIdent {
			return selectItem{}, fmt.Errorf("query: expected alias after AS")
		}
		item.name = p.cur().text
		p.advance()
	}
	return item, nil
}

// Expression grammar (precedence low→high): OR, AND, NOT, comparison,
// additive, multiplicative, unary minus, primary.
func (p *parser) parseExpr() (expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{"OR", l, r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{"AND", l, r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr, error) {
	if p.atKeyword("NOT") {
		p.advance()
		sub, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return unaryExpr{"NOT", sub}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokSymbol {
		op := p.cur().text
		if op != "=" && op != "!=" && op != "<" && op != "<=" && op != ">" && op != ">=" {
			break
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("+") || p.atSymbol("-") {
		op := p.cur().text
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("*") || p.atSymbol("/") {
		op := p.cur().text
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binaryExpr{op, l, r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.atSymbol("-") {
		p.advance()
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryExpr{"-", sub}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad number %q", t.text)
		}
		p.advance()
		return literalExpr{v}, nil
	case tokString:
		p.advance()
		return literalExpr{t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.advance()
			return literalExpr{true}, nil
		case "FALSE":
			p.advance()
			return literalExpr{false}, nil
		case "NULL":
			p.advance()
			return literalExpr{nil}, nil
		}
		return nil, fmt.Errorf("query: unexpected keyword %q in expression", t.text)
	case tokIdent:
		name := t.text
		upper := strings.ToUpper(name)
		p.advance()
		if p.atSymbol("(") {
			if !aggFuncs[upper] && upper != "LEN" {
				return nil, fmt.Errorf("query: unknown function %q", name)
			}
			p.advance()
			if p.atSymbol("*") {
				p.advance()
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				if upper != "COUNT" {
					return nil, fmt.Errorf("query: %s(*) is only valid for COUNT", name)
				}
				return callExpr{fn: upper, star: true}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return callExpr{fn: upper, arg: arg}, nil
		}
		p.fields = append(p.fields, strings.Split(name, "."))
		return identExpr{p.fields[len(p.fields)-1], len(p.fields) - 1}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("query: unexpected token %q", t.text)
}
