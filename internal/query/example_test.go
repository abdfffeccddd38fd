package query_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"crowdscope/internal/query"
	"crowdscope/internal/store"
)

// ExampleRun shows the §3 "translation layer" in use: a grouped aggregate
// over a store namespace.
func ExampleRun() {
	dir, err := os.MkdirTemp("", "query-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	w, err := st.Writer("users", 1)
	if err != nil {
		log.Fatal(err)
	}
	type user struct {
		Role    string `json:"role"`
		Follows int    `json:"follows"`
	}
	for _, u := range []user{
		{"investor", 300}, {"investor", 100}, {"founder", 10},
	} {
		if err := w.Append("", u); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	res, err := query.Run(context.Background(), query.JSONSource{Scanner: st}, `
		SELECT role, COUNT(*) AS n, AVG(follows) AS avg_follows
		FROM users GROUP BY role ORDER BY n DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1], row[2])
	}
	// Output:
	// investor 2 200
	// founder 1 10
}
