package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"

	"crowdscope/internal/core"
	"crowdscope/internal/query"
)

// stmt is one generated statement together with its oracle: expect
// computes the answer with a plain Go loop over the decoded snapshot,
// sharing nothing with the query engine but the Result shape.
type stmt struct {
	// format is the SQL text with one %s where the snapshot's namespace
	// prefix (frozen/snap-NNNNNN) goes, so crawl_refresh can re-aim a
	// population at whichever snapshot is being served.
	format string
	expect func(fs *core.FrozenSnapshot) query.Result
}

func (s *stmt) sql(snap int) string {
	return fmt.Sprintf(s.format, core.FrozenNamespace(snap))
}

// queryPath is the request path and query string for a statement.
func queryPath(sql string) string { return "/api/query?q=" + url.QueryEscape(sql) }

// expectedBody is the byte-exact response the serving layer must send:
// the marshalled Result plus the encoder's trailing newline.
func expectedBody(res query.Result) ([]byte, error) {
	body, err := json.Marshal(&res)
	if err != nil {
		return nil, fmt.Errorf("benchmark: marshal expected result: %w", err)
	}
	return append(body, '\n'), nil
}

type intCol struct {
	name string
	get  func(*core.Company) int64
}

type boolCol struct {
	name string
	get  func(*core.Company) bool
}

// The indexed company columns (core.EncodeIndexes). heavyInts are the
// long-tailed ones, where a high quantile selects few rows.
var (
	companyInts = []intCol{
		{"Likes", func(c *core.Company) int64 { return int64(c.Likes) }},
		{"Tweets", func(c *core.Company) int64 { return int64(c.Tweets) }},
		{"Followers", func(c *core.Company) int64 { return int64(c.Followers) }},
		{"TotalRaisedUSD", func(c *core.Company) int64 { return c.TotalRaisedUSD }},
		{"RoundCount", func(c *core.Company) int64 { return int64(c.RoundCount) }},
	}
	heavyInts    = companyInts[:4]
	companyBools = []boolCol{
		{"Raising", func(c *core.Company) bool { return c.Raising }},
		{"HasVideo", func(c *core.Company) bool { return c.HasVideo }},
		{"HasFacebook", func(c *core.Company) bool { return c.HasFacebook }},
		{"HasTwitter", func(c *core.Company) bool { return c.HasTwitter }},
		{"Funded", func(c *core.Company) bool { return c.Funded }},
	}
)

// snapshotView is the harness's own decoded copy of a snapshot plus the
// sorted columns it draws thresholds from. Thresholds come from the
// data's quantiles so that a statement's selectivity, and therefore the
// route the planner picks, does not depend on the seed's world.
type snapshotView struct {
	fs     *core.FrozenSnapshot
	sorted map[string][]int64
}

func newSnapshotView(fs *core.FrozenSnapshot) *snapshotView {
	v := &snapshotView{fs: fs, sorted: map[string][]int64{}}
	for _, col := range companyInts {
		vals := make([]int64, len(fs.Companies))
		for i := range fs.Companies {
			vals[i] = col.get(&fs.Companies[i])
		}
		v.sorted[col.name] = sortInt64s(vals)
	}
	lens := make([]int64, len(fs.Investors))
	follows := make([]int64, len(fs.Investors))
	for i := range fs.Investors {
		lens[i] = int64(len(fs.Investors[i].Investments))
		follows[i] = int64(fs.Investors[i].Follows)
	}
	v.sorted["LEN(Investments)"] = sortInt64s(lens)
	v.sorted["Follows"] = sortInt64s(follows)
	return v
}

func sortInt64s(vals []int64) []int64 {
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals
}

// threshold returns a value that about topShare of the column's rows
// reach or exceed.
func (v *snapshotView) threshold(col string, topShare float64) int64 {
	vals := v.sorted[col]
	if len(vals) == 0 {
		return 0
	}
	i := int(float64(len(vals)) * (1 - topShare))
	if i >= len(vals) {
		i = len(vals) - 1
	}
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// ---- oracle building blocks: plain loops over the decoded structs ----

// matchingCompanies returns the row numbers pred accepts, ascending.
func matchingCompanies(fs *core.FrozenSnapshot, pred func(*core.Company) bool) []int {
	var rows []int
	for i := range fs.Companies {
		if pred == nil || pred(&fs.Companies[i]) {
			rows = append(rows, i)
		}
	}
	return rows
}

// topCompanies answers SELECT ID, col ... ORDER BY col [DESC] LIMIT k:
// a stable sort of the matching rows in row order, then the first k.
func topCompanies(fs *core.FrozenSnapshot, pred func(*core.Company) bool, col intCol, desc bool, k int) query.Result {
	rows := matchingCompanies(fs, pred)
	sort.SliceStable(rows, func(a, b int) bool {
		va, vb := col.get(&fs.Companies[rows[a]]), col.get(&fs.Companies[rows[b]])
		if desc {
			return va > vb
		}
		return va < vb
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	res := query.Result{Columns: []string{"ID", col.name}}
	for _, r := range rows {
		c := &fs.Companies[r]
		res.Rows = append(res.Rows, []any{c.ID, float64(col.get(c))})
	}
	return res
}

func countResult(column string, n int) query.Result {
	return query.Result{Columns: []string{column}, Rows: [][]any{{float64(n)}}}
}

// listCompanies answers SELECT ID, Name, col ... ORDER BY ID. Frozen
// rows are already in ID order, but the oracle sorts anyway rather than
// lean on that.
func listCompanies(fs *core.FrozenSnapshot, pred func(*core.Company) bool, col intCol) query.Result {
	rows := matchingCompanies(fs, pred)
	sort.SliceStable(rows, func(a, b int) bool { return fs.Companies[rows[a]].ID < fs.Companies[rows[b]].ID })
	res := query.Result{Columns: []string{"ID", "Name", col.name}}
	for _, r := range rows {
		c := &fs.Companies[r]
		res.Rows = append(res.Rows, []any{c.ID, c.Name, float64(col.get(c))})
	}
	return res
}

func boolText(b boolCol, want bool) string {
	if want {
		return b.name
	}
	return "NOT " + b.name
}

func direction(desc bool) string {
	if desc {
		return " DESC"
	}
	return ""
}

// ---- the index-routed population (serve_hot, crawl_refresh) ----

// indexedStatement draws one statement of the interactive-exploration
// mix: top-k, top-k within a boolean filter, boolean∧range counts,
// filtered lists in ID order, and investor degree/follow ranges. Every
// shape is one the planner answers from the secondary indexes.
func indexedStatement(rng *rand.Rand, v *snapshotView) *stmt {
	switch p := rng.Float64(); {
	case p < 0.30:
		col, desc, k := companyInts[rng.Intn(len(companyInts))], rng.Intn(4) != 0, 1+rng.Intn(100)
		return &stmt{
			format: fmt.Sprintf("SELECT ID, %s FROM %%s/companies ORDER BY %s%s LIMIT %d", col.name, col.name, direction(desc), k),
			expect: func(fs *core.FrozenSnapshot) query.Result { return topCompanies(fs, nil, col, desc, k) },
		}
	case p < 0.50:
		b, want := companyBools[rng.Intn(len(companyBools))], rng.Intn(3) != 0
		col, desc, k := companyInts[rng.Intn(len(companyInts))], rng.Intn(4) != 0, 1+rng.Intn(100)
		pred := func(c *core.Company) bool { return b.get(c) == want }
		return &stmt{
			format: fmt.Sprintf("SELECT ID, %s FROM %%s/companies WHERE %s ORDER BY %s%s LIMIT %d",
				col.name, boolText(b, want), col.name, direction(desc), k),
			expect: func(fs *core.FrozenSnapshot) query.Result { return topCompanies(fs, pred, col, desc, k) },
		}
	case p < 0.70:
		b, want := companyBools[rng.Intn(len(companyBools))], rng.Intn(3) != 0
		col := companyInts[rng.Intn(len(companyInts))]
		x := v.threshold(col.name, 0.001+0.5*rng.Float64())
		pred := func(c *core.Company) bool { return b.get(c) == want && col.get(c) >= x }
		return &stmt{
			format: fmt.Sprintf("SELECT COUNT(*) FROM %%s/companies WHERE %s AND %s >= %d", boolText(b, want), col.name, x),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				return countResult("COUNT(*)", len(matchingCompanies(fs, pred)))
			},
		}
	case p < 0.85:
		b, want := companyBools[rng.Intn(len(companyBools))], rng.Intn(3) != 0
		col := heavyInts[rng.Intn(len(heavyInts))]
		x := v.threshold(col.name, 0.0002+0.003*rng.Float64())
		pred := func(c *core.Company) bool { return b.get(c) == want && col.get(c) >= x }
		return &stmt{
			format: fmt.Sprintf("SELECT ID, Name, %s FROM %%s/companies WHERE %s AND %s >= %d ORDER BY ID",
				col.name, boolText(b, want), col.name, x),
			expect: func(fs *core.FrozenSnapshot) query.Result { return listCompanies(fs, pred, col) },
		}
	case p < 0.93:
		x := v.threshold("LEN(Investments)", 0.001+0.01*rng.Float64())
		return &stmt{
			format: fmt.Sprintf("SELECT ID, LEN(Investments) AS n FROM %%s/investors WHERE LEN(Investments) >= %d ORDER BY ID", x),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				res := query.Result{Columns: []string{"ID", "n"}}
				rows := make([]int, 0)
				for i := range fs.Investors {
					if int64(len(fs.Investors[i].Investments)) >= x {
						rows = append(rows, i)
					}
				}
				sort.SliceStable(rows, func(a, b int) bool { return fs.Investors[rows[a]].ID < fs.Investors[rows[b]].ID })
				for _, r := range rows {
					res.Rows = append(res.Rows, []any{fs.Investors[r].ID, float64(len(fs.Investors[r].Investments))})
				}
				return res
			},
		}
	default:
		lo := v.threshold("Follows", 0.05+0.9*rng.Float64())
		hi := lo + 1 + int64(rng.Intn(40))
		return &stmt{
			format: fmt.Sprintf("SELECT COUNT(*) FROM %%s/investors WHERE Follows >= %d AND Follows < %d", lo, hi),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				n := 0
				for i := range fs.Investors {
					if f := int64(fs.Investors[i].Follows); f >= lo && f < hi {
						n++
					}
				}
				return countResult("COUNT(*)", n)
			},
		}
	}
}

// indexedPopulation draws n distinct index-routed statements.
func indexedPopulation(seed int64, v *snapshotView, n int) ([]*stmt, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	pop := make([]*stmt, 0, n)
	for attempts := 0; len(pop) < n; attempts++ {
		if attempts > 100*n {
			return nil, fmt.Errorf("benchmark: only %d distinct indexed statements after %d draws", len(pop), attempts)
		}
		s := indexedStatement(rng, v)
		if seen[s.format] {
			continue
		}
		seen[s.format] = true
		pop = append(pop, s)
	}
	return pop, nil
}

// ---- the never-repeating scan statements (serve_adhoc) ----

// quoteSQL renders a string literal the query lexer reads back intact.
func quoteSQL(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// adhocGen hands out statements the planner can only scan: look-ups by
// string equality, arithmetic predicates, grouped aggregates. No
// statement is handed out twice, so the result cache never helps; the
// mutex lets closed-loop sessions share one generator.
type adhocGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	v    *snapshotView
	seen map[string]bool
	// shape walks [0,1) in golden-ratio steps from a seeded start: the
	// shapes cost between 3 ms (the investor table) and a full company
	// scan, and a hundred independent draws would let the share of cheap
	// ones, and with it the goodput, wander by a tenth between runs.
	shape float64
}

func newAdhocGen(seed int64, v *snapshotView) *adhocGen {
	rng := rand.New(rand.NewSource(seed))
	return &adhocGen{rng: rng, v: v, seen: map[string]bool{}, shape: rng.Float64()}
}

// next hands out a fresh statement of the next shape in the walk.
func (g *adhocGen) next() (*stmt, error) {
	g.mu.Lock()
	g.shape = math.Mod(g.shape+math.Phi-1, 1)
	p := g.shape
	g.mu.Unlock()
	return g.nextOf(p)
}

// nextOf hands out a fresh statement of the shape that p in [0,1)
// selects, so that replays at different depths can ask for the same
// sequence of shapes.
func (g *adhocGen) nextOf(p float64) (*stmt, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for attempts := 0; attempts < 1000; attempts++ {
		s := g.draw(p)
		if !g.seen[s.format] {
			g.seen[s.format] = true
			return s, nil
		}
	}
	return nil, fmt.Errorf("benchmark: ad-hoc statement space exhausted after %d statements", len(g.seen))
}

func (g *adhocGen) draw(p float64) *stmt {
	rng, fs := g.rng, g.v.fs
	switch {
	case p < 0.25:
		id := fs.Companies[rng.Intn(len(fs.Companies))].ID
		return &stmt{
			format: "SELECT ID, Name, Likes, Funded FROM %s/companies WHERE ID = " + quoteSQL(id),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				res := query.Result{Columns: []string{"ID", "Name", "Likes", "Funded"}}
				for i := range fs.Companies {
					if c := &fs.Companies[i]; c.ID == id {
						res.Rows = append(res.Rows, []any{c.ID, c.Name, float64(c.Likes), c.Funded})
					}
				}
				return res
			},
		}
	case p < 0.45:
		name := fs.Companies[rng.Intn(len(fs.Companies))].Name
		return &stmt{
			format: "SELECT ID, Followers FROM %s/companies WHERE Name = " + quoteSQL(name) + " ORDER BY ID",
			expect: func(fs *core.FrozenSnapshot) query.Result {
				res := query.Result{Columns: []string{"ID", "Followers"}}
				rows := matchingCompanies(fs, func(c *core.Company) bool { return c.Name == name })
				sort.SliceStable(rows, func(a, b int) bool { return fs.Companies[rows[a]].ID < fs.Companies[rows[b]].ID })
				for _, r := range rows {
					res.Rows = append(res.Rows, []any{fs.Companies[r].ID, float64(fs.Companies[r].Followers)})
				}
				return res
			},
		}
	case p < 0.65:
		x := g.v.threshold("Likes", 0.9*rng.Float64()) + int64(rng.Intn(1000))
		return &stmt{
			format: fmt.Sprintf("SELECT COUNT(*) AS n FROM %%s/companies WHERE Likes + Tweets >= %d", x),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				return countResult("n", len(matchingCompanies(fs, func(c *core.Company) bool {
					return int64(c.Likes)+int64(c.Tweets) >= x
				})))
			},
		}
	case p < 0.85:
		k := int64(rng.Intn(1000))
		x := g.v.threshold("Followers", 0.9*rng.Float64()) + int64(rng.Intn(1000))
		return &stmt{
			format: fmt.Sprintf("SELECT Funded, COUNT(*) AS n, AVG(Likes) AS avg_likes FROM %%s/companies WHERE Followers + %d >= %d GROUP BY Funded", k, x),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				res := query.Result{Columns: []string{"Funded", "n", "avg_likes"}}
				for _, funded := range []bool{false, true} {
					var n int
					var sum float64
					for i := range fs.Companies {
						if c := &fs.Companies[i]; c.Funded == funded && int64(c.Followers)+k >= x {
							n++
							sum += float64(c.Likes)
						}
					}
					if n > 0 {
						res.Rows = append(res.Rows, []any{funded, float64(n), sum / float64(n)})
					}
				}
				return res
			},
		}
	default:
		x := g.v.threshold("Follows", 0.9*rng.Float64()) + int64(rng.Intn(50))
		return &stmt{
			format: fmt.Sprintf("SELECT COUNT(*) AS n FROM %%s/investors WHERE LEN(Investments) * 2 + Follows >= %d", x),
			expect: func(fs *core.FrozenSnapshot) query.Result {
				n := 0
				for i := range fs.Investors {
					if int64(len(fs.Investors[i].Investments))*2+int64(fs.Investors[i].Follows) >= x {
						n++
					}
				}
				return countResult("n", n)
			},
		}
	}
}

// ---- Zipf draws ----

// popularity ranks a population of n statements: rank[0] is the most
// requested. The seeded permutation decouples a statement's popularity
// from its place in the population, so the hot set mixes every shape.
func popularity(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// zipfStream draws statement numbers with Zipf(1.1) popularity over a
// ranking. Each connection owns a stream; all share the ranking.
type zipfStream struct {
	z    *rand.Zipf
	rank []int
}

func newZipfStream(seed int64, rank []int) *zipfStream {
	rng := rand.New(rand.NewSource(seed))
	return &zipfStream{z: rand.NewZipf(rng, 1.1, 1, uint64(len(rank)-1)), rank: rank}
}

func (s *zipfStream) next() int { return s.rank[s.z.Uint64()] }

// ---- workload-validity guard ----

// guardRoutes asserts the planner still routes the statements the way
// the workload's reason for existing requires: wantScan statements must
// plan to the scan route, the others to one of the index routes. A
// later planner change that moves them must stop the run, not quietly
// turn a cache/index benchmark into a scan benchmark.
func guardRoutes(src query.Source, stmts []*stmt, snap int, wantScan bool) error {
	for _, s := range stmts {
		sql := s.sql(snap)
		q, err := query.Parse(sql)
		if err != nil {
			return fmt.Errorf("benchmark: guard: %q: %w", sql, err)
		}
		route := q.PlanFor(src).Route
		if isScan := route == query.RouteScan; isScan != wantScan {
			return fmt.Errorf("benchmark: guard: %q plans to %s (want scan=%v)", sql, route, wantScan)
		}
	}
	return nil
}
