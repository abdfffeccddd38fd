package query

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ErrBadStatement marks a statement that parses but cannot be executed:
// an ORDER BY key that names no selected column, or a comparison over
// aggregates. Such a statement fails the same way on every snapshot.
var ErrBadStatement = errors.New("query: bad statement")

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
// honour ctx cancellation mid-stream — core's QuerySource looks before
// the first record and then every 64 — so that a route deadline set by
// the serving layer cuts off a read that has no query pass above it
// (the JSON export); under a query, the pass looks on the same cadence
// itself.
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
	s := &sink{q: q, where: q.conjs}
	if q.aggregated() {
		s.groups = map[string]*group{}
		if len(q.groupBy) == 0 {
			s.groups[""] = q.newGroup() // the one global group exists even when empty
		}
	}
	// The pass checks the context itself, whatever the source does: a
	// deadline must cut a scan off mid-stream. It looks before the first
	// record and then once every cancelEvery records.
	done, n := ctx.Done(), 0
	add := func(rec Record) error {
		if n%cancelEvery == 0 {
			select {
			case <-done:
				return fmt.Errorf("query: read %s: %w", q.namespace, ctx.Err())
			default:
			}
		}
		n++
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

// cancelEvery is how many records a pass streams between two looks at
// its context: often enough that a cancelled pass stops within
// microseconds, rarely enough that the look costs nothing per record.
const cancelEvery = 64

// sink consumes the record stream: each record is filtered, then
// projected into an output row or folded into its group, so no record
// outlives its callback.
type sink struct {
	q      *Query
	where  []conjunct
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
	for _, c := range s.where {
		if !truthy(c.eval(rec)) {
			return nil
		}
	}
	if s.groups == nil {
		out := make([]any, len(q.items))
		for i, item := range q.items {
			out[i] = item.eval(rec).any()
		}
		s.rows = append(s.rows, out)
		return nil
	}
	s.key = s.key[:0]
	for _, e := range q.group {
		s.key = append(appendKey(s.key, e(rec)), 0)
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
	for i, arg := range q.aggArgs {
		if arg != nil {
			g.aggs[i].add(arg(rec))
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
			v, err := item.fold(s.groups[key])
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
			return fmt.Errorf("%w: ORDER BY %s does not match a selected column", ErrBadStatement, name)
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

// ---- compiled expressions ----

// evalFn is an expression compiled once, at Parse: its value for one
// record, with literals converted and operators resolved ahead of time.
// Missing fields yield nil.
type evalFn func(Record) value

// foldFn is a select item compiled for a finished group.
type foldFn func(*group) (value, error)

// conjunct is one AND-ed term of a WHERE clause, compiled. A record
// passes the clause when every term is truthy, tested left to right,
// which is how the tree's AND short-circuits.
type conjunct struct {
	expr expr
	eval evalFn
}

// compile builds the statement's compiled forms (Parse calls it once the
// aggregates are bound).
func (q *Query) compile() {
	for _, c := range splitConjuncts(q.where) {
		q.conjs = append(q.conjs, conjunct{expr: c, eval: compile(c)})
	}
	for i := range q.items {
		if q.aggregated() {
			q.items[i].fold = compileFold(q.items[i].expr)
		} else {
			q.items[i].eval = compile(q.items[i].expr)
		}
	}
	for _, e := range q.groupBy {
		q.group = append(q.group, compile(e))
	}
	for _, c := range q.aggs {
		var arg evalFn
		if !c.star {
			arg = compile(c.arg)
		}
		q.aggArgs = append(q.aggArgs, arg)
	}
}

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

func boolean(b bool) value { return value{ref: b} }

func (v value) any() any {
	if v.isNum {
		return v.num
	}
	return v.ref
}

func (v value) isNil() bool { return !v.isNum && v.ref == nil }

// compile compiles an expression to its per-record value.
func compile(e expr) evalFn {
	switch t := e.(type) {
	case literalExpr:
		v := valueOf(t.value)
		return func(Record) value { return v }
	case identExpr:
		slot := t.slot
		return func(rec Record) value { return valueOf(rec.Value(slot)) }
	case unaryExpr:
		sub := compile(t.sub)
		if t.op == "NOT" {
			return func(rec Record) value { return boolean(!truthy(sub(rec))) }
		}
		return func(rec Record) value { return negate(sub(rec)) }
	case binaryExpr:
		l, r := compile(t.l), compile(t.r)
		switch {
		case t.op == "AND":
			return func(rec Record) value { return boolean(truthy(l(rec)) && truthy(r(rec))) }
		case t.op == "OR":
			return func(rec Record) value { return boolean(truthy(l(rec)) || truthy(r(rec))) }
		case isCmpOp(t.op):
			// Either side nil makes a comparison false.
			test := cmpTests[t.op]
			return func(rec Record) value {
				a, b := l(rec), r(rec)
				return boolean(!a.isNil() && !b.isNil() && test(compareValues(a, b)))
			}
		}
		op := arithOps[t.op]
		return func(rec Record) value { return arith(op, l(rec), r(rec)) }
	case callExpr:
		if t.fn == "LEN" {
			arg := compile(t.arg)
			return func(rec Record) value { return length(arg(rec)) }
		}
		// An aggregate outside the select list's fold (in a WHERE, or
		// nested in another call) is the aggregate of this one record.
		if t.star {
			v := t.result(1, aggState{})
			return func(Record) value { return v }
		}
		arg := compile(t.arg)
		return func(rec Record) value {
			var one aggState
			one.add(arg(rec))
			return t.result(1, one)
		}
	}
	return func(Record) value { return value{} }
}

// cmpTests maps each comparison operator to its test on compareValues'
// result.
var cmpTests = map[string]func(int) bool{
	"=":  func(c int) bool { return c == 0 },
	"!=": func(c int) bool { return c != 0 },
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
}

// length is LEN: the length of a string or list, 0 for nil, nil for
// anything else.
func length(v value) value {
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

// negate is unary minus: nil for anything that is not a number.
func negate(v value) value {
	if f, ok := toFloat(v); ok {
		return number(-f)
	}
	return value{}
}

// arithOps resolves + - * / to their kernels over two numbers; a zero
// divisor yields nil.
var arithOps = map[string]func(l, r float64) value{
	"+": func(l, r float64) value { return number(l + r) },
	"-": func(l, r float64) value { return number(l - r) },
	"*": func(l, r float64) value { return number(l * r) },
	"/": func(l, r float64) value {
		if r == 0 {
			return value{}
		}
		return number(l / r)
	},
}

// arith applies an arithmetic kernel to two values: nil when either is
// not a number.
func arith(op func(l, r float64) value, l, r value) value {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return value{}
	}
	return op(lf, rf)
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

// compileFold compiles a select item for a finished group: aggregates
// read their folded state, everything else is evaluated on the group's
// first record (the GROUP BY key is constant within a group).
func compileFold(e expr) foldFn {
	if !containsAggregate(e) {
		v := compile(e)
		return func(g *group) (value, error) {
			if g.n == 0 {
				return value{}, nil
			}
			return v(g.first), nil
		}
	}
	switch t := e.(type) {
	case unaryExpr:
		sub := compileFold(t.sub)
		return func(g *group) (value, error) {
			v, err := sub(g)
			switch {
			case err != nil:
				return value{}, err
			case t.op == "-":
				return negate(v), nil
			}
			return boolean(!truthy(v)), nil
		}
	case binaryExpr:
		l, r, op := compileFold(t.l), compileFold(t.r), arithOps[t.op]
		return func(g *group) (value, error) {
			lv, err := l(g)
			if err != nil {
				return value{}, err
			}
			rv, err := r(g)
			if err != nil {
				return value{}, err
			}
			if op != nil {
				return arith(op, lv, rv), nil
			}
			// A comparison, AND or OR: refused over two numbers, nil
			// otherwise.
			_, lok := toFloat(lv)
			_, rok := toFloat(rv)
			if lok && rok {
				return value{}, fmt.Errorf("%w: operator %s not supported over aggregates", ErrBadStatement, t.op)
			}
			return value{}, nil
		}
	}
	c := e.(callExpr)
	return func(g *group) (value, error) { return c.result(g.n, g.aggs[c.slot]), nil }
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
		return cmpFloat(af, bf)
	}
	as, aIsStr := a.ref.(string)
	bs, bIsStr := b.ref.(string)
	if aIsStr && bIsStr {
		return strings.Compare(as, bs)
	}
	return strings.Compare(fmt.Sprintf("%T", a.any()), fmt.Sprintf("%T", b.any()))
}

// cmpFloat orders two numbers; NaN compares equal to everything.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
