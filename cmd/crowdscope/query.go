package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"crowdscope/internal/core"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// runQuery runs SQL-like statements (the paper's §3 "translation layer"
// for social scientists) against a crawled store: the statement in args,
// or with none, one statement per line of standard input.
//
// Namespaces are the store's crawl namespaces: angellist/startups,
// angellist/users, crunchbase/profiles, facebook/profiles,
// twitter/profiles. When the store holds a frozen snapshot its merged
// columns are queryable in place as virtual namespaces:
// frozen/snap-N/companies and frozen/snap-N/investors, and the changes
// between two snapshots as frozen/chain/A-B/{companies,investors}.
// -rebuild-snapshot re-freezes the latest crawled snapshot from the
// store's records first (the same core.BuildFrozen every crawl runs).
func runQuery(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := o.flagSet("query", "store")
	rebuild := fs.Bool("rebuild-snapshot", false, "re-freeze the latest crawled snapshot from the store's records before querying")
	explain := fs.Bool("explain", false, "print the chosen query plan (scan vs. secondary index) before each result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := o.storeDir()
	if err != nil {
		return err
	}

	// Queries never write unless -rebuild-snapshot asks for one; the
	// read-only open skips the crash-debris sweep, so querying a store
	// that another process is still crawling into is safe.
	openStore := store.OpenReadOnly
	if *rebuild {
		openStore = store.Open
	}
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	if *rebuild {
		snap, err := core.BuildFrozen(ctx, st, -1)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rebuilt frozen snapshot %d\n", snap)
	}
	src := &core.QuerySource{Store: st}
	if stmt := strings.TrimSpace(strings.Join(fs.Args(), " ")); stmt != "" {
		return runStatement(ctx, stdout, src, stmt, *explain)
	}

	fmt.Fprintln(stdout, "namespaces:", strings.Join(st.Namespaces(), ", "))
	fmt.Fprintln(stdout, "enter SELECT statements, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(stdout, "> ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return sc.Err()
		}
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			continue
		}
		if err := runStatement(ctx, stdout, src, stmt, *explain); err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
	}
}

// runStatement runs one statement and prints its result as an aligned
// table.
func runStatement(ctx context.Context, stdout io.Writer, src query.Source, stmt string, explain bool) error {
	q, err := query.Parse(stmt)
	if err != nil {
		return err
	}
	res, plan, err := q.Explain(ctx, src)
	if err != nil {
		return err
	}
	if explain {
		fmt.Fprintln(stdout, "plan:", plan.Explain())
	}
	widths := make([]int, len(res.Columns))
	cells := make([][]string, 0, len(res.Rows)+1)
	header := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range res.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = formatValue(v)
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for r, line := range cells {
		var sb strings.Builder
		for i, cell := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(stdout, sb.String())
		if r == 0 {
			var underline strings.Builder
			for i, w := range widths {
				if i > 0 {
					underline.WriteString("  ")
				}
				underline.WriteString(strings.Repeat("-", w))
			}
			fmt.Fprintln(stdout, underline.String())
		}
	}
	fmt.Fprintf(stdout, "(%d rows)\n", len(res.Rows))
	return nil
}

func formatValue(v any) string {
	switch t := v.(type) {
	case nil:
		return "NULL"
	case float64:
		if t == float64(int64(t)) {
			return fmt.Sprintf("%d", int64(t))
		}
		return fmt.Sprintf("%.4g", t)
	default:
		return fmt.Sprint(v)
	}
}
