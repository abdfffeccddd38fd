package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdscope/internal/store"
)

// Property: WHERE filtering and GROUP BY aggregation match a hand-rolled
// reference computation on random records.
func TestQueryMatchesReferenceProperty(t *testing.T) {
	type rec struct {
		Group string  `json:"grp"`
		Value float64 `json:"value"`
		Flag  bool    `json:"flag"`
	}
	f := func(seed int64, nRecs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := store.Open(t.TempDir())
		if err != nil {
			return false
		}
		w, err := st.Writer("recs", 1)
		if err != nil {
			return false
		}
		n := int(nRecs)%150 + 1
		recs := make([]rec, n)
		for i := range recs {
			recs[i] = rec{
				Group: string(rune('a' + rng.Intn(4))),
				Value: float64(rng.Intn(100)),
				Flag:  rng.Intn(2) == 0,
			}
			if err := w.Append("", recs[i]); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}

		res, err := Run(context.Background(), JSONSource{st}, `
			SELECT grp, COUNT(*) AS n, SUM(value) AS total, MAX(value) AS top
			FROM recs WHERE flag = TRUE GROUP BY grp ORDER BY grp`)
		if err != nil {
			return false
		}
		// Reference.
		type agg struct {
			n     float64
			total float64
			top   float64
		}
		want := map[string]*agg{}
		for _, r := range recs {
			if !r.Flag {
				continue
			}
			a := want[r.Group]
			if a == nil {
				a = &agg{top: r.Value}
				want[r.Group] = a
			}
			a.n++
			a.total += r.Value
			if r.Value > a.top {
				a.top = r.Value
			}
		}
		if len(res.Rows) != len(want) {
			return false
		}
		prev := ""
		for _, row := range res.Rows {
			g, ok := row[0].(string)
			if !ok || g < prev {
				return false // ORDER BY violated
			}
			prev = g
			a := want[g]
			if a == nil {
				return false
			}
			if row[1] != a.n || row[2] != a.total || row[3] != a.top {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LIMIT never returns more rows than asked and is a prefix of
// the unlimited result.
func TestLimitPrefixProperty(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := st.Writer("xs", 1)
	for i := 0; i < 60; i++ {
		_ = w.Append("", map[string]any{"id": fmt.Sprintf("x%03d", i)})
	}
	_ = w.Close()
	full, err := Run(context.Background(), JSONSource{st}, "SELECT id FROM xs ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for _, lim := range []int{0, 1, 7, 59, 60, 100} {
		res, err := Run(context.Background(), JSONSource{st}, fmt.Sprintf("SELECT id FROM xs ORDER BY id LIMIT %d", lim))
		if err != nil {
			t.Fatal(err)
		}
		wantLen := lim
		if wantLen > len(full.Rows) {
			wantLen = len(full.Rows)
		}
		if len(res.Rows) != wantLen {
			t.Fatalf("LIMIT %d returned %d rows", lim, len(res.Rows))
		}
		for i := range res.Rows {
			if res.Rows[i][0] != full.Rows[i][0] {
				t.Fatalf("LIMIT %d not a prefix at %d", lim, i)
			}
		}
	}
}
