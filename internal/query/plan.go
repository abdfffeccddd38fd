package query

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"crowdscope/internal/index"
)

// Plan routes. A query executes over exactly one of these.
const (
	// RouteScan streams every record of the namespace through the filter
	// — the always-correct baseline.
	RouteScan = "scan"
	// RouteIndex probes secondary indexes for the WHERE conjuncts,
	// ANDs their row bitmaps, and materializes only the matching rows.
	RouteIndex = "index"
	// RouteIndexCount answers COUNT(*) queries from index cardinalities
	// (a popcount of the ANDed bitmaps for several conjuncts) without
	// materializing any record.
	RouteIndexCount = "index-count"
	// RouteIndexTopK walks a column ordering to pick ORDER BY ... LIMIT k
	// rows before materializing anything.
	RouteIndexTopK = "index-topk"
)

// IndexedSource is a Source whose namespaces may carry persisted
// secondary indexes. The contract that makes pushdown sound: indexes
// must be built from exactly the columns ReadRecords serves, and
// ReadRows must stream the same records ReadRecords would for those
// rows, in ascending row order.
//
// TableIndex returns (nil, nil) for a namespace without indexes, and an
// error when an index exists but fails to load or validate — the
// planner then falls back to a scan, carrying the reason in the plan.
type IndexedSource interface {
	Source
	TableIndex(ns string) (*index.TableIndex, error)
	ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(Record) error) error
}

// Plan records how a query was (or would be) executed: the chosen
// route, which WHERE conjuncts were pushed into index probes, what
// filter remains for post-materialization evaluation, and — when the
// planner declined the index path — why.
type Plan struct {
	Route     string   `json:"route"`
	Namespace string   `json:"namespace"`
	TableRows int      `json:"table_rows,omitempty"` // rows in the namespace, when indexed
	Pushed    []string `json:"pushed,omitempty"`     // conjuncts answered by index probes
	Residual  string   `json:"residual,omitempty"`   // filter still evaluated per record
	OrderKey  string   `json:"order_key,omitempty"`  // ordering walked by the top-k route
	OrderDesc bool     `json:"order_desc,omitempty"`
	EstRows   int      `json:"est_rows,omitempty"` // planner's cardinality estimate
	Fallback  string   `json:"fallback,omitempty"` // why the scan route was chosen
}

// Explain renders the plan as one human-readable line, the format
// surfaced by crowdscope query -explain and the serving layer's logs.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "route=%s namespace=%s", p.Route, p.Namespace)
	if p.TableRows > 0 {
		fmt.Fprintf(&sb, " rows=%d", p.TableRows)
	}
	if len(p.Pushed) > 0 {
		fmt.Fprintf(&sb, " pushed=[%s] est=%d", strings.Join(p.Pushed, " AND "), p.EstRows)
	}
	if p.Residual != "" {
		fmt.Fprintf(&sb, " residual=%s", p.Residual)
	}
	if p.OrderKey != "" {
		dir := "ASC"
		if p.OrderDesc {
			dir = "DESC"
		}
		fmt.Fprintf(&sb, " order=%s %s", p.OrderKey, dir)
	}
	if p.Fallback != "" {
		fmt.Fprintf(&sb, " fallback=%q", p.Fallback)
	}
	return sb.String()
}

// planned is the executable form of a Plan: the probe descriptors and
// residual conjuncts the public Plan only describes.
type planned struct {
	plan     *Plan
	ti       *index.TableIndex
	conjs    []pushedConj
	residual []conjunct
	topK     int
}

// pushedConj is one WHERE conjunct the planner answers with an index
// probe instead of per-record evaluation.
type pushedConj struct {
	kind string // "bool" | "range"
	key  string
	want bool    // bool kind: which side of the attribute's bitmap
	op   string  // range kind: = != < <= > >=
	val  float64 // range kind: the literal threshold
	est  int     // cardinality estimate from BoolCount/RangeCount
}

func (c pushedConj) count(ti *index.TableIndex) int {
	if c.kind == "bool" {
		n, _ := ti.BoolCount(c.key, c.want)
		return n
	}
	n, _ := ti.RangeCount(c.key, c.op, c.val)
	return n
}

func (c pushedConj) set(ti *index.TableIndex) index.Bitmap {
	if c.kind == "bool" {
		b, _ := ti.BoolSet(c.key, c.want)
		return b
	}
	b, _ := ti.RangeSet(c.key, c.op, c.val)
	return b
}

// PlanFor reports how the query would execute against the source
// without running it.
func (q *Query) PlanFor(src Source) *Plan {
	return q.planFor(src).plan
}

// planFor builds the executable plan. It only ever chooses an index
// route whose results are provably byte-identical to the scan route.
func (q *Query) planFor(src Source) *planned {
	p := &planned{plan: &Plan{Route: RouteScan, Namespace: q.namespace}}
	is, ok := src.(IndexedSource)
	if !ok {
		p.plan.Fallback = "source has no secondary indexes"
		return p
	}
	ti, err := is.TableIndex(q.namespace)
	if err != nil {
		p.plan.Fallback = fmt.Sprintf("index unavailable: %v", err)
		return p
	}
	if ti == nil {
		// Name the namespace: for frozen tables it embeds the snapshot
		// version, so "which snapshot in the chain lost its index" is
		// answerable straight from the fallback reason.
		p.plan.Fallback = fmt.Sprintf("namespace %s is not indexed", q.namespace)
		return p
	}
	p.ti = ti
	p.plan.TableRows = ti.Rows()

	for _, c := range q.conjs {
		pc, ok := classifyConjunct(c.expr, ti)
		if !ok {
			p.residual = append(p.residual, c)
			continue
		}
		pc.est = pc.count(ti)
		p.conjs = append(p.conjs, pc)
		p.plan.Pushed = append(p.plan.Pushed, c.expr.String())
	}
	if len(p.residual) > 0 {
		p.plan.Residual = andAll(p.residual).String()
	}

	est := ti.Rows()
	for _, c := range p.conjs {
		if c.est < est {
			est = c.est
		}
	}
	p.plan.EstRows = est

	fullPush := q.where == nil || (len(p.conjs) > 0 && len(p.residual) == 0)

	// COUNT(*) over fully pushed predicates needs no records at all.
	if fullPush && q.countOnly() {
		p.plan.Route = RouteIndexCount
		return p
	}

	// ORDER BY <ordered column> LIMIT k over fully pushed predicates:
	// the ordering hands us the k extreme rows directly. Restricted to a
	// single ORDER BY key — with a secondary key, boundary ties could be
	// reordered across the LIMIT cut by the second key, so the first key
	// alone does not determine the selected rows.
	if fullPush && !q.aggregated() && q.limit >= 0 && len(q.orderBy) == 1 {
		if key := q.orderBy[0].expr.String(); ti.HasOrder(key) {
			p.plan.Route = RouteIndexTopK
			p.plan.OrderKey = key
			p.plan.OrderDesc = q.orderBy[0].desc
			p.topK = q.limit
			if p.topK < p.plan.EstRows {
				p.plan.EstRows = p.topK
			}
			return p
		}
	}

	if q.where == nil {
		p.plan.Fallback = "no predicates to push down"
		return p
	}
	if len(p.conjs) == 0 {
		p.plan.Fallback = "no indexable predicates"
		p.plan.EstRows = 0
		return p
	}
	// Cost gate: probing and then materializing nearly the whole table
	// row by row costs more than one sequential scan.
	if ti.Rows() > 0 && est*4 >= ti.Rows()*3 {
		p.plan.Fallback = fmt.Sprintf("predicates not selective (est %d of %d rows)", est, ti.Rows())
		return p
	}
	p.plan.Route = RouteIndex
	return p
}

// matchSet ANDs the pushed conjuncts' row bitmaps word by word; nil
// when nothing was pushed.
func (p *planned) matchSet() index.Bitmap {
	var set index.Bitmap
	for i, c := range p.conjs {
		if i == 0 {
			set = c.set(p.ti)
			continue
		}
		set.And(c.set(p.ti))
	}
	return set
}

// matchedRows resolves the pushed conjuncts to the final ascending
// row-id set, applying the top-k traversal when that route was chosen.
func (p *planned) matchedRows() []int32 {
	set := p.matchSet()
	if p.plan.Route == RouteIndexTopK {
		r, _ := p.ti.TopK(p.plan.OrderKey, p.plan.OrderDesc, p.topK, set)
		return r
	}
	return set.Rows()
}

// matchCount resolves the pushed conjuncts to a cardinality without
// materializing rows: the estimate for a single probe, a popcount of
// the ANDed bitmaps for several.
func (p *planned) matchCount() int {
	switch len(p.conjs) {
	case 0:
		return p.ti.Rows()
	case 1:
		return p.conjs[0].est
	}
	return p.matchSet().Count()
}

// countOnly reports whether the query is exactly `SELECT COUNT(*) ...`
// with no grouping or ordering — the shape answerable from cardinality
// alone.
func (q *Query) countOnly() bool {
	if len(q.groupBy) != 0 || len(q.orderBy) != 0 || len(q.items) != 1 {
		return false
	}
	c, ok := q.items[0].expr.(callExpr)
	return ok && c.fn == "COUNT" && c.star
}

// aggregated reports whether the query folds groups rather than
// emitting one output row per record.
func (q *Query) aggregated() bool { return len(q.groupBy) > 0 || len(q.aggs) > 0 }

// classifyConjunct decides whether one WHERE conjunct can be answered
// by an index probe with semantics identical to per-record evaluation:
//
//	Attr                  -> the attribute's bitmap (bool truthiness)
//	NOT Attr              -> its masked complement
//	Attr = TRUE/FALSE     -> bitmap / complement (also != and flipped)
//	Col OP number         -> ordering binary search (also flipped)
//	LEN(Col) OP number    -> ordering keyed by the canonical expression
//
// Everything else stays residual; frozen columns are complete, so the
// scan path's missing-field-is-nil case cannot diverge.
func classifyConjunct(e expr, ti *index.TableIndex) (pushedConj, bool) {
	switch t := e.(type) {
	case identExpr:
		if key := t.String(); ti.HasBool(key) {
			return pushedConj{kind: "bool", key: key, want: true}, true
		}
	case unaryExpr:
		if t.op == "NOT" {
			if id, ok := t.sub.(identExpr); ok {
				if key := id.String(); ti.HasBool(key) {
					return pushedConj{kind: "bool", key: key, want: false}, true
				}
			}
		}
	case binaryExpr:
		op := t.op
		if !isCmpOp(op) {
			break
		}
		col, lit, flipped := splitCmp(t)
		if col == nil {
			break
		}
		if flipped {
			op = flipOp(op)
		}
		key := col.String()
		switch v := lit.value.(type) {
		case bool:
			// `Attr = TRUE` compares as numbers in the scan path
			// (bool -> 0/1), so equality holds exactly when the
			// attribute matches the literal.
			if (op == "=" || op == "!=") && ti.HasBool(key) {
				return pushedConj{kind: "bool", key: key, want: v == (op == "=")}, true
			}
		case float64:
			if ti.HasOrder(key) {
				return pushedConj{kind: "range", key: key, op: op, val: v}, true
			}
		}
	}
	return pushedConj{}, false
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// flipOp mirrors a comparison across its operands: `5 < x` is `x > 5`.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// splitCmp extracts the (indexable expression, literal) sides of a
// comparison, in either order.
func splitCmp(t binaryExpr) (col expr, lit literalExpr, flipped bool) {
	if l, ok := t.r.(literalExpr); ok && indexableExpr(t.l) {
		return t.l, l, false
	}
	if l, ok := t.l.(literalExpr); ok && indexableExpr(t.r) {
		return t.r, l, true
	}
	return nil, literalExpr{}, false
}

// indexableExpr reports whether the expression's canonical string can
// key an index: a column reference or a LEN() over one.
func indexableExpr(e expr) bool {
	switch t := e.(type) {
	case identExpr:
		return true
	case callExpr:
		return t.fn == "LEN"
	}
	return false
}

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e expr) []expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(binaryExpr); ok && b.op == "AND" {
		return append(splitConjuncts(b.l), splitConjuncts(b.r)...)
	}
	return []expr{e}
}

// andAll rebuilds a conjunction from conjuncts, for the plan's text.
// Truthiness makes AND associative, so the fold order is immaterial.
func andAll(cs []conjunct) expr {
	out := cs[0].expr
	for _, c := range cs[1:] {
		out = binaryExpr{"AND", out, c.expr}
	}
	return out
}

// Canonical renders the query in a normalized textual form suitable as
// a cache key: equal canonical strings imply equal results against the
// same snapshot, and the text parses back to the same query. Unlike
// expr.String, string literals are quoted (the way the lexer reads them
// back) so `name = "abc"` and `name = abc` cannot collide, numbers are
// written without an exponent, and every operator is parenthesized.
func (q *Query) Canonical() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range q.items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(canonExpr(it.expr))
		if it.name != it.expr.String() {
			sb.WriteString(" AS ")
			sb.WriteString(it.name)
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.namespace)
	if q.where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(canonExpr(q.where))
	}
	for i, g := range q.groupBy {
		if i == 0 {
			sb.WriteString(" GROUP BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(canonExpr(g))
	}
	for i, o := range q.orderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(canonExpr(o.expr))
		if o.desc {
			sb.WriteString(" DESC")
		}
	}
	if q.limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.limit)
	}
	return sb.String()
}

// quoteEscaper escapes a string literal the way the lexer unescapes it.
var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

func canonExpr(e expr) string {
	switch t := e.(type) {
	case literalExpr:
		switch v := t.value.(type) {
		case string:
			return `"` + quoteEscaper.Replace(v) + `"`
		case nil:
			return "NULL"
		case bool:
			if v {
				return "TRUE"
			}
			return "FALSE"
		case float64:
			return strconv.FormatFloat(v, 'f', -1, 64)
		}
		return fmt.Sprint(t.value)
	case identExpr:
		return t.String()
	case unaryExpr:
		return "(" + t.op + " " + canonExpr(t.sub) + ")"
	case binaryExpr:
		return "(" + canonExpr(t.l) + " " + t.op + " " + canonExpr(t.r) + ")"
	case callExpr:
		if t.star {
			return t.fn + "(*)"
		}
		return t.fn + "(" + canonExpr(t.arg) + ")"
	}
	return e.String()
}
