// Command crowdquery runs SQL-like statements (the paper's §3
// "translation layer" for social scientists) against a crawled store.
//
// Usage:
//
//	crowdquery -store crawl-data "SELECT role, COUNT(*) AS n FROM angellist/users GROUP BY role ORDER BY n DESC"
//	crowdquery -store crawl-data            # interactive: one statement per line
//
// Namespaces are the store's crawl namespaces: angellist/startups,
// angellist/users, crunchbase/profiles, facebook/profiles,
// twitter/profiles. When the store holds a frozen snapshot its merged
// columns are queryable in place as virtual namespaces:
// frozen/snap-N/companies and frozen/snap-N/investors, and the changes
// between two snapshots as frozen/chain/A-B/{companies,investors}.
// -rebuild-snapshot re-freezes the latest crawled snapshot from the
// store's records first (the same core.BuildFrozen every crawl runs).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"crowdscope/internal/core"
	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crowdquery: ")
	storeDir := flag.String("store", "crawl-data", "store directory (see crowdcrawl)")
	rebuild := flag.Bool("rebuild-snapshot", false, "re-freeze the latest crawled snapshot from the store's records before querying")
	explain := flag.Bool("explain", false, "print the chosen query plan (scan vs. secondary index) before each result")
	flag.Parse()

	// Queries never write unless -rebuild-snapshot asks for one; the
	// read-only open skips the crash-debris sweep, so querying a store
	// that another process is still crawling into is safe.
	openStore := store.OpenReadOnly
	if *rebuild {
		openStore = store.Open
	}
	st, err := openStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	if *rebuild {
		snap, err := core.BuildFrozen(context.Background(), st, -1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rebuilt frozen snapshot %d\n", snap)
	}
	src := &core.QuerySource{Store: st}
	if stmt := strings.TrimSpace(strings.Join(flag.Args(), " ")); stmt != "" {
		if err := runOne(src, stmt, *explain); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("namespaces:", strings.Join(st.Namespaces(), ", "))
	fmt.Println("enter SELECT statements, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			continue
		}
		if err := runOne(src, stmt, *explain); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func runOne(src query.Source, stmt string, explain bool) error {
	q, err := query.Parse(stmt)
	if err != nil {
		return err
	}
	res, plan, err := q.Explain(context.Background(), src)
	if err != nil {
		return err
	}
	if explain {
		fmt.Println("plan:", plan.Explain())
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
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		fmt.Println(sb.String())
		if r == 0 {
			var underline strings.Builder
			for i, w := range widths {
				if i > 0 {
					underline.WriteString("  ")
				}
				underline.WriteString(strings.Repeat("-", w))
			}
			fmt.Println(underline.String())
		}
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
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
