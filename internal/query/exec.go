package query

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is a query's output table.
type Result struct {
	Columns []string
	Rows    [][]any
}

// Record is one row of a namespace as a statement reads it: Value(i) is
// the value at the i'th field path the read was given, exactly as
// json.Unmarshal into any would produce it from the row's JSON —
// float64, string, bool, []any, map[string]any or nil, and nil too for
// a path the row does not have. (Strings are valid UTF-8, as everything
// that entered through a JSON decoder is.) A Record is only valid
// during the callback it was passed to.
type Record interface {
	Value(i int) any
}

// Source is what a query reads from: anything that can stream a
// namespace's records under the caller's context, resolving the
// statement's field paths once per read rather than once per record.
// core's QuerySource serves frozen snapshot columns this way directly;
// JSONSource adapts a store of JSON payloads. Implementations must
// honour ctx cancellation between records, so a route deadline set by
// the serving layer cuts a scan off mid-stream.
type Source interface {
	ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error
}

// JSONSource adapts a schemaless payload store (a *store.Store) to
// Source by decoding each payload once and walking the decoded document
// per field path.
type JSONSource struct {
	Scanner interface {
		ScanContext(ctx context.Context, ns string, fn func(payload []byte) error) error
	}
}

// ReadRecords implements Source.
func (s JSONSource) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error {
	rec := &jsonRecord{fields: fields}
	return s.Scanner.ScanContext(ctx, ns, func(payload []byte) error {
		rec.doc = nil // Unmarshal merges into a non-nil map
		if err := json.Unmarshal(payload, &rec.doc); err != nil {
			return fmt.Errorf("query: bad record in %s: %w", ns, err)
		}
		return fn(rec)
	})
}

type jsonRecord struct {
	fields [][]string
	doc    map[string]any
}

func (r *jsonRecord) Value(i int) any {
	var cur any = r.doc
	for _, part := range r.fields[i] {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		if cur, ok = m[part]; !ok {
			return nil
		}
	}
	return cur
}

// Run parses and executes a statement against the source. The context
// bounds the whole execution: record streaming stops at the first
// cancellation check after the deadline passes.
func Run(ctx context.Context, src Source, statement string) (*Result, error) {
	q, err := Parse(statement)
	if err != nil {
		return nil, err
	}
	return q.Execute(ctx, src)
}

// Execute runs the parsed query: the planner picks a route (index
// probes when the source carries usable secondary indexes, a full scan
// otherwise), and the records stream out of the source under the
// caller's context through one pass that filters, then projects or
// folds into groups; ORDER BY / LIMIT shape the final table.
func (q *Query) Execute(ctx context.Context, src Source) (*Result, error) {
	res, _, err := q.Explain(ctx, src)
	return res, err
}

// Explain is Execute returning the executed plan alongside the result,
// for -explain output and the serving layer's route tallies.
func (q *Query) Explain(ctx context.Context, src Source) (*Result, *Plan, error) {
	p := q.planFor(src)
	if p.plan.Route == RouteIndexCount {
		res := &Result{
			Columns: []string{q.items[0].name},
			Rows:    [][]any{{float64(p.matchCount())}},
		}
		if q.limit == 0 {
			res.Rows = res.Rows[:0]
		}
		return res, p.plan, nil
	}
	res, err := q.stream(ctx, src, p)
	return res, p.plan, err
}

// stream is the only place the query layer reads records: the whole
// namespace on the scan route, exactly the planner-selected rows on the
// index routes. Both arrive in ascending row order and go through the
// same sink (the index routes minus rows already proven non-matching),
// which is what keeps their results byte-identical.
func (q *Query) stream(ctx context.Context, src Source, p *planned) (*Result, error) {
	s := &sink{q: q, where: q.where}
	if q.aggregated() {
		s.groups = map[string]*group{}
		if len(q.groupBy) == 0 {
			s.groups[""] = q.newGroup() // the one global group exists even when empty
		}
	}
	// The pass checks the context between records itself, whatever the
	// source does: a deadline must cut a scan off mid-stream.
	add := func(rec Record) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("query: read %s: %w", q.namespace, err)
		}
		return s.add(rec)
	}
	var err error
	if p.plan.Route == RouteScan {
		err = src.ReadRecords(ctx, q.namespace, q.fields, add)
	} else {
		s.where = p.residual
		err = src.(IndexedSource).ReadRows(ctx, q.namespace, p.matchedRows(), q.fields, add)
	}
	if err != nil {
		return nil, err
	}
	return s.result()
}

// sink consumes the record stream: each record is filtered, then
// projected into an output row or folded into its group, so no record
// outlives its callback.
type sink struct {
	q      *Query
	where  expr
	rows   [][]any           // projected rows (no aggregation)
	groups map[string]*group // by rendered GROUP BY key; nil when not aggregating
	key    []byte            // scratch for the current record's group key
}

// group is one GROUP BY bucket's running state.
type group struct {
	n     int
	first values // the first record's fields, for the non-aggregate select items
	aggs  []aggState
}

// values is a Record detached from its source.
type values []any

func (v values) Value(i int) any { return v[i] }

func (q *Query) newGroup() *group {
	return &group{first: make(values, len(q.fields)), aggs: make([]aggState, len(q.aggs))}
}

func (s *sink) add(rec Record) error {
	q := s.q
	if s.where != nil && !truthy(eval(s.where, rec)) {
		return nil
	}
	if s.groups == nil {
		out := make([]any, len(q.items))
		for i, item := range q.items {
			out[i] = eval(item.expr, rec).any()
		}
		s.rows = append(s.rows, out)
		return nil
	}
	s.key = s.key[:0]
	for _, e := range q.groupBy {
		s.key = append(appendKey(s.key, eval(e, rec)), 0)
	}
	g := s.groups[string(s.key)]
	if g == nil {
		g = q.newGroup()
		s.groups[string(s.key)] = g
	}
	if g.n == 0 {
		for i := range g.first {
			g.first[i] = rec.Value(i)
		}
	}
	g.n++
	for i, c := range q.aggs {
		if !c.star {
			g.aggs[i].add(eval(c.arg, rec))
		}
	}
	return nil
}

// appendKey renders one GROUP BY value the way %v does.
func appendKey(b []byte, v value) []byte {
	switch t := v.ref.(type) {
	case string:
		return append(b, t...)
	case bool:
		return strconv.AppendBool(b, t)
	}
	return fmt.Appendf(b, "%v", v.any())
}

// result closes the stream: groups come out ordered by their rendered
// key, then ORDER BY and LIMIT shape the table.
func (s *sink) result() (*Result, error) {
	q := s.q
	res := &Result{Rows: s.rows}
	for _, item := range q.items {
		res.Columns = append(res.Columns, item.name)
	}
	keys := make([]string, 0, len(s.groups))
	for key := range s.groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		out := make([]any, len(q.items))
		for i, item := range q.items {
			v, err := s.groups[key].fold(item.expr)
			if err != nil {
				return nil, err
			}
			out[i] = v.any()
		}
		res.Rows = append(res.Rows, out)
	}
	if err := q.order(res); err != nil {
		return nil, err
	}
	if q.limit >= 0 && len(res.Rows) > q.limit {
		res.Rows = res.Rows[:q.limit]
	}
	return res, nil
}

// order applies ORDER BY over the result rows by re-evaluating the order
// expressions against the output columns when they alias a select item,
// falling back to positional column references.
func (q *Query) order(res *Result) error {
	if len(q.orderBy) == 0 {
		return nil
	}
	// Each order expression must match a select item (by alias or
	// expression text) — the common, unambiguous case.
	cols := make([]int, len(q.orderBy))
	for i, item := range q.orderBy {
		name := item.expr.String()
		cols[i] = slices.Index(res.Columns, name)
		if cols[i] < 0 {
			cols[i] = slices.IndexFunc(q.items, func(sel selectItem) bool { return sel.expr.String() == name })
		}
		if cols[i] < 0 {
			return fmt.Errorf("query: ORDER BY %s does not match a selected column", name)
		}
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, c := range cols {
			cmp := compareValues(valueOf(res.Rows[a][c]), valueOf(res.Rows[b][c]))
			if cmp == 0 {
				continue
			}
			if q.orderBy[i].desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
}

// ---- expression evaluation ----

// value is an evaluated expression. Numbers stay unboxed so arithmetic
// and comparisons over a scan allocate nothing; anything else a record
// can hold (nil, string, bool, []any, map[string]any) rides in ref.
type value struct {
	num   float64
	isNum bool
	ref   any
}

func valueOf(v any) value {
	if f, ok := v.(float64); ok {
		return value{num: f, isNum: true}
	}
	return value{ref: v}
}

func number(f float64) value { return value{num: f, isNum: true} }

func (v value) any() any {
	if v.isNum {
		return v.num
	}
	return v.ref
}

func (v value) isNil() bool { return !v.isNum && v.ref == nil }

// eval evaluates an expression against one record. Missing fields yield
// nil.
func eval(e expr, rec Record) value {
	switch t := e.(type) {
	case literalExpr:
		return valueOf(t.value)
	case identExpr:
		return valueOf(rec.Value(t.slot))
	case unaryExpr:
		v := eval(t.sub, rec)
		if t.op == "NOT" {
			return value{ref: !truthy(v)}
		}
		return negate(v)
	case binaryExpr:
		l := eval(t.l, rec)
		switch t.op {
		case "AND":
			return value{ref: truthy(l) && truthy(eval(t.r, rec))}
		case "OR":
			return value{ref: truthy(l) || truthy(eval(t.r, rec))}
		}
		r := eval(t.r, rec)
		if !isCmpOp(t.op) {
			return arith(t.op, l, r)
		}
		if l.isNil() || r.isNil() {
			return value{ref: false}
		}
		cmp := compareValues(l, r)
		switch t.op {
		case "=":
			return value{ref: cmp == 0}
		case "!=":
			return value{ref: cmp != 0}
		case "<":
			return value{ref: cmp < 0}
		case "<=":
			return value{ref: cmp <= 0}
		case ">":
			return value{ref: cmp > 0}
		}
		return value{ref: cmp >= 0}
	case callExpr:
		v := eval(t.arg, rec)
		if t.fn == "LEN" {
			switch a := v.ref.(type) {
			case []any:
				return number(float64(len(a)))
			case string:
				return number(float64(len(a)))
			case nil:
				if !v.isNum {
					return number(0)
				}
			}
			return value{}
		}
		// An aggregate outside the select list's fold (in a WHERE, or
		// nested in another call) is the aggregate of this one record.
		var one aggState
		if !t.star {
			one.add(v)
		}
		return t.result(1, one)
	}
	return value{}
}

// negate is unary minus: nil for anything that is not a number.
func negate(v value) value {
	if f, ok := toFloat(v); ok {
		return number(-f)
	}
	return value{}
}

// arith applies + - * / to two numbers; a non-number operand or a zero
// divisor yields nil.
func arith(op string, l, r value) value {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return value{}
	}
	switch op {
	case "+":
		return number(lf + rf)
	case "-":
		return number(lf - rf)
	case "*":
		return number(lf * rf)
	}
	if rf == 0 {
		return value{}
	}
	return number(lf / rf)
}

// containsAggregate reports whether the expression contains COUNT/SUM/....
func containsAggregate(e expr) bool {
	switch t := e.(type) {
	case callExpr:
		return t.fn != "LEN"
	case unaryExpr:
		return containsAggregate(t.sub)
	case binaryExpr:
		return containsAggregate(t.l) || containsAggregate(t.r)
	}
	return false
}

// aggState is one aggregate call's running fold over a group.
type aggState struct {
	nonNull, nums int // non-nil arguments seen; how many of them were numbers
	sum, min, max float64
}

func (a *aggState) add(v value) {
	if v.isNil() {
		return
	}
	a.nonNull++
	f, ok := toFloat(v)
	if !ok {
		return
	}
	if a.nums == 0 || f < a.min {
		a.min = f
	}
	if a.nums == 0 || f > a.max {
		a.max = f
	}
	a.nums++
	a.sum += f
}

// result is the aggregate call's value over n records folded into a.
func (c callExpr) result(n int, a aggState) value {
	switch {
	case c.fn == "COUNT" && c.star:
		return number(float64(n))
	case c.fn == "COUNT":
		return number(float64(a.nonNull))
	case c.fn == "SUM":
		return number(a.sum)
	case a.nums == 0:
		return value{}
	case c.fn == "AVG":
		return number(a.sum / float64(a.nums))
	case c.fn == "MIN":
		return number(a.min)
	}
	return number(a.max)
}

// fold evaluates a select item over a finished group: aggregates read
// their folded state, everything else is evaluated on the group's first
// record (the GROUP BY key is constant within a group).
func (g *group) fold(e expr) (value, error) {
	if !containsAggregate(e) {
		if g.n == 0 {
			return value{}, nil
		}
		return eval(e, g.first), nil
	}
	switch t := e.(type) {
	case unaryExpr:
		v, err := g.fold(t.sub)
		switch {
		case err != nil:
			return value{}, err
		case t.op == "-":
			return negate(v), nil
		}
		return value{ref: !truthy(v)}, nil
	case binaryExpr:
		l, err := g.fold(t.l)
		if err != nil {
			return value{}, err
		}
		r, err := g.fold(t.r)
		if err != nil {
			return value{}, err
		}
		_, lok := toFloat(l)
		_, rok := toFloat(r)
		if lok && rok && (isCmpOp(t.op) || t.op == "AND" || t.op == "OR") {
			return value{}, fmt.Errorf("query: operator %s not supported over aggregates", t.op)
		}
		return arith(t.op, l, r), nil // nil unless both are numbers
	}
	c := e.(callExpr)
	return c.result(g.n, g.aggs[c.slot]), nil
}

func truthy(v value) bool {
	if v.isNum {
		return v.num != 0
	}
	switch t := v.ref.(type) {
	case bool:
		return t
	case string:
		return t != ""
	case nil:
		return false
	}
	return true
}

func toFloat(v value) (float64, bool) {
	if v.isNum {
		return v.num, true
	}
	if b, ok := v.ref.(bool); ok {
		if b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// compareValues orders mixed values: numbers numerically, strings
// lexically, bools false<true; nil sorts first; mismatched kinds order by
// kind name for stability.
func compareValues(a, b value) int {
	switch an, bn := a.isNil(), b.isNil(); {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, aIsStr := a.ref.(string)
	bs, bIsStr := b.ref.(string)
	if aIsStr && bIsStr {
		return strings.Compare(as, bs)
	}
	return strings.Compare(fmt.Sprintf("%T", a.any()), fmt.Sprintf("%T", b.any()))
}
