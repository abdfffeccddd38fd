package query

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"crowdscope/internal/index"
)

// countingSource is an indexed table of 100 rows that records every read
// the engine makes: how often it scanned the namespace and which rows
// it asked for by index.
type countingSource struct {
	ti      *index.TableIndex
	rows    []map[string]any
	scans   int
	rowSets [][]int32
}

func newCountingSource(t *testing.T) *countingSource {
	t.Helper()
	const n = 100
	src := &countingSource{}
	raising := make([]bool, n)
	likes := make([]int64, n)
	for i := 0; i < n; i++ {
		raising[i] = i%10 == 0
		likes[i] = int64(i * 37 % n)
		src.rows = append(src.rows, map[string]any{
			"ID":      fmt.Sprintf("r%d", i),
			"Raising": raising[i],
			"Likes":   float64(likes[i]),
		})
	}
	ti, err := index.BuildTable(index.Table{Name: "t", Rows: n,
		Bools: map[string][]bool{"Raising": raising},
		Ints:  map[string][]int64{"Likes": likes}})
	if err != nil {
		t.Fatal(err)
	}
	src.ti = ti
	return src
}

func (c *countingSource) record(row int32, fields [][]string) Record {
	v := make(values, len(fields))
	for i, path := range fields {
		v[i] = c.rows[row][path[0]]
	}
	return v
}

func (c *countingSource) TableIndex(ns string) (*index.TableIndex, error) { return c.ti, nil }

func (c *countingSource) ReadRecords(ctx context.Context, ns string, fields [][]string, fn func(Record) error) error {
	c.scans++
	for i := range c.rows {
		if err := fn(c.record(int32(i), fields)); err != nil {
			return err
		}
	}
	return nil
}

func (c *countingSource) ReadRows(ctx context.Context, ns string, rows []int32, fields [][]string, fn func(Record) error) error {
	c.rowSets = append(c.rowSets, slices.Clone(rows))
	for _, r := range rows {
		if err := fn(c.record(r, fields)); err != nil {
			return err
		}
	}
	return nil
}

// TestEachRouteReadsOnlyWhatItsPlanSelects pins the planner-first read
// discipline: the scan route reads the namespace once, the index routes
// read exactly the rows the planner selected and never scan, and the
// count route reads no row at all. A record read anywhere outside the
// one read site shows up here as an extra scan or row set.
func TestEachRouteReadsOnlyWhatItsPlanSelects(t *testing.T) {
	for _, tc := range []struct {
		route, sql string
	}{
		{RouteScan, "SELECT ID FROM t WHERE ID = 'r7'"},
		{RouteIndex, "SELECT ID FROM t WHERE Raising = TRUE"},
		{RouteIndexTopK, "SELECT ID, Likes FROM t ORDER BY Likes DESC LIMIT 3"},
		{RouteIndexCount, "SELECT COUNT(*) AS n FROM t WHERE Raising = TRUE"},
	} {
		t.Run(tc.route, func(t *testing.T) {
			src := newCountingSource(t)
			q, err := Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			p := q.planFor(src)
			if p.plan.Route != tc.route {
				t.Fatalf("planned route %s (%s), want %s", p.plan.Route, p.plan.Fallback, tc.route)
			}
			res, err := q.Execute(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.route {
			case RouteScan:
				if src.scans != 1 || len(src.rowSets) != 0 {
					t.Fatalf("scan route: %d scans, %d row reads; want 1 scan and no row read", src.scans, len(src.rowSets))
				}
			case RouteIndex, RouteIndexTopK:
				want := p.matchedRows()
				if len(want) == 0 {
					t.Fatal("the planner selected no rows; the check is vacuous")
				}
				if src.scans != 0 || len(src.rowSets) != 1 || !slices.Equal(src.rowSets[0], want) {
					t.Fatalf("%s route: %d scans, row reads %v; want no scan and one read of %v", tc.route, src.scans, src.rowSets, want)
				}
				if len(res.Rows) != len(want) {
					t.Fatalf("%s route returned %d rows from %d selected", tc.route, len(res.Rows), len(want))
				}
			case RouteIndexCount:
				if src.scans != 0 || len(src.rowSets) != 0 {
					t.Fatalf("count route: %d scans, %d row reads; want none", src.scans, len(src.rowSets))
				}
				if res.Rows[0][0] != float64(10) {
					t.Fatalf("count = %v, want 10", res.Rows[0][0])
				}
			}
		})
	}
}
