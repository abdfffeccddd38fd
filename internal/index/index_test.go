package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"crowdscope/internal/parallel"
	"crowdscope/internal/snapshot"
)

// testTable builds a small table with known content:
//
//	row:     0   1   2   3   4   5
//	hot:     T   F   T   F   F   T
//	score:   5   3   5   9   1   3
func testTable(t *testing.T) *TableIndex {
	t.Helper()
	ti, err := BuildTable(Table{
		Name: "things",
		Rows: 6,
		Bools: map[string][]bool{
			"hot": {true, false, true, false, false, true},
		},
		Ints: map[string][]int64{
			"score": {5, 3, 5, 9, 1, 3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

// set builds the rows-row bitmap holding exactly the given rows.
func set(rows int, members ...int32) Bitmap {
	b := newBitmap(rows)
	for _, r := range members {
		b.set(r)
	}
	return b
}

func TestEqBoolAndCounts(t *testing.T) {
	ti := testTable(t)
	if got, ok := ti.BoolSet("hot", true); !ok || !reflect.DeepEqual(got.Rows(), []int32{0, 2, 5}) {
		t.Fatalf("BoolSet(hot,true) = %v, %v", got.Rows(), ok)
	}
	if got, ok := ti.BoolSet("hot", false); !ok || !reflect.DeepEqual(got.Rows(), []int32{1, 3, 4}) || !tailClean(got, 6) {
		t.Fatalf("BoolSet(hot,false) = %v (%#x), %v", got.Rows(), []uint64(got), ok)
	}
	if n, ok := ti.BoolCount("hot", true); !ok || n != 3 {
		t.Fatalf("BoolCount(hot,true) = %d, %v", n, ok)
	}
	if n, ok := ti.BoolCount("hot", false); !ok || n != 3 {
		t.Fatalf("BoolCount(hot,false) = %d, %v", n, ok)
	}
	if _, ok := ti.BoolSet("missing", true); ok {
		t.Fatal("BoolSet on unindexed attribute reported ok")
	}
	// The sets handed out are copies: ANDing into one must not change
	// the next probe's answer.
	a, _ := ti.BoolSet("hot", true)
	a.And(set(6))
	if again, _ := ti.BoolSet("hot", true); again.Count() != 3 {
		t.Fatalf("BoolSet after mutating a previous answer = %v", again.Rows())
	}
}

// match evaluates `val OP v` the way the scan path does, in float64.
func match(val int64, op string, v float64) bool {
	f := float64(val)
	switch op {
	case "=":
		return f == v
	case "!=":
		return f != v
	case "<":
		return f < v
	case "<=":
		return f <= v
	case ">":
		return f > v
	case ">=":
		return f >= v
	}
	return false
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

func TestRangeMatchesBruteForce(t *testing.T) {
	col := []int64{5, 3, 5, 9, 1, 3}
	ti := testTable(t)
	thresholds := []float64{-1, 1, 2.5, 3, 5, 5.5, 9, 12}
	for _, op := range cmpOps {
		for _, v := range thresholds {
			got, ok := ti.RangeSet("score", op, v)
			if !ok {
				t.Fatalf("RangeSet(score,%s,%v) not ok", op, v)
			}
			want := []int32{}
			for r, val := range col {
				if match(val, op, v) {
					want = append(want, int32(r))
				}
			}
			if !reflect.DeepEqual(got.Rows(), want) || !tailClean(got, len(col)) {
				t.Fatalf("RangeSet(score,%s,%v) = %v (%#x), want %v", op, v, got.Rows(), []uint64(got), want)
			}
			if n, ok := ti.RangeCount("score", op, v); !ok || n != len(want) {
				t.Fatalf("RangeCount(score,%s,%v) = %d, want %d", op, v, n, len(want))
			}
		}
	}
	if _, ok := ti.RangeSet("score", "~", 1); ok {
		t.Fatal("unknown operator reported ok")
	}
	if _, ok := ti.RangeSet("missing", ">", 1); ok {
		t.Fatal("unindexed column reported ok")
	}
}

// TestTopKStableTies pins the tie-breaking contract: within equal
// values, lower row ids win slots first — in both directions — exactly
// like the scan path's stable sort.
func TestTopKStableTies(t *testing.T) {
	ti := testTable(t)
	// Ascending by score: 1(r4) 3(r1) 3(r5) 5(r0) 5(r2) 9(r3).
	if got, ok := ti.TopK("score", false, 3, nil); !ok || !reflect.DeepEqual(got, []int32{1, 4, 5}) {
		t.Fatalf("TopK(asc,3) = %v, %v", got, ok)
	}
	// Descending: 9(r3) 5(r0) 5(r2) 3(r1) 3(r5) 1(r4).
	if got, ok := ti.TopK("score", true, 3, nil); !ok || !reflect.DeepEqual(got, []int32{0, 2, 3}) {
		t.Fatalf("TopK(desc,3) = %v, %v", got, ok)
	}
	if got, ok := ti.TopK("score", true, 100, nil); !ok || len(got) != 6 {
		t.Fatalf("TopK(desc,100) = %v, %v", got, ok)
	}
	// Restricted to the hot rows {0,2,5}: descending scores 5(r0) 5(r2) 3(r5).
	within, _ := ti.BoolSet("hot", true)
	if got, ok := ti.TopK("score", true, 2, within); !ok || !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("TopK(desc,2,hot) = %v, %v", got, ok)
	}
	if got, ok := ti.TopK("score", false, 2, within); !ok || !reflect.DeepEqual(got, []int32{0, 5}) {
		t.Fatalf("TopK(asc,2,hot) = %v, %v", got, ok)
	}
	if got, ok := ti.TopK("score", false, 2, set(6)); !ok || len(got) != 0 {
		t.Fatalf("TopK over the empty set = %v, %v", got, ok)
	}
	if _, ok := ti.TopK("missing", false, 2, nil); ok {
		t.Fatal("TopK on an unordered column reported ok")
	}
}

// TestIntersect holds the conjunction kernel, a word-wise AND, to the
// set intersection: across word boundaries, with the empty set, and
// counted by popcount.
func TestIntersect(t *testing.T) {
	a := set(130, 1, 3, 5, 7, 64, 127, 129)
	a.And(set(130, 2, 3, 4, 7, 9, 64, 128, 129))
	if got := a.Rows(); !reflect.DeepEqual(got, []int32{3, 7, 64, 129}) || a.Count() != 4 {
		t.Fatalf("And = %v (count %d)", got, a.Count())
	}
	a.And(set(130))
	if got := a.Rows(); len(got) != 0 || a.Count() != 0 {
		t.Fatalf("And with the empty set = %v", got)
	}
	if got := set(0).Rows(); len(got) != 0 {
		t.Fatalf("a 0-row set holds %v", got)
	}
}

// tailClean reports whether b is sized for rows and holds no bit past
// the last row — the invariant that keeps a complement from inflating
// a count.
func tailClean(b Bitmap, rows int) bool {
	if len(b) != (rows+63)/64 {
		return false
	}
	return rows%64 == 0 || b[len(b)-1]>>(rows%64) == 0
}

// checkKernels holds every probe of ti to brute force over the columns
// it was built from: each boolean side, each comparison at thresholds
// on and between the column's values, conjunctions, and top-k in both
// directions for k from 0 past the match count, over every row and
// within a candidate set (an empty one included).
func checkKernels(t *testing.T, ti *TableIndex, tab Table) {
	t.Helper()
	n := tab.Rows
	brute := func(pred func(r int) bool) []int32 {
		out := []int32{}
		for r := 0; r < n; r++ {
			if pred(r) {
				out = append(out, int32(r))
			}
		}
		return out
	}
	same := func(what string, got Bitmap, want []int32) {
		t.Helper()
		if !tailClean(got, n) || !slices.Equal(got.Rows(), want) || got.Count() != len(want) {
			t.Fatalf("%s over %d rows = %v (words %#x), want %v", what, n, got.Rows(), []uint64(got), want)
		}
	}
	var sets []Bitmap
	var setRows [][]int32
	for key, col := range tab.Bools {
		for _, want := range []bool{true, false} {
			got, ok := ti.BoolSet(key, want)
			if !ok {
				t.Fatalf("BoolSet(%s) not ok", key)
			}
			rows := brute(func(r int) bool { return col[r] == want })
			same(fmt.Sprintf("BoolSet(%s,%v)", key, want), got, rows)
			if c, _ := ti.BoolCount(key, want); c != len(rows) {
				t.Fatalf("BoolCount(%s,%v) = %d, want %d", key, want, c, len(rows))
			}
			sets, setRows = append(sets, got), append(setRows, rows)
		}
	}
	for key, col := range tab.Ints {
		thresholds := []float64{math.Inf(-1), math.Inf(1)}
		for _, v := range col {
			thresholds = append(thresholds, float64(v), float64(v)+0.5)
		}
		for _, op := range cmpOps {
			for _, v := range thresholds {
				got, ok := ti.RangeSet(key, op, v)
				if !ok {
					t.Fatalf("RangeSet(%s,%s) not ok", key, op)
				}
				rows := brute(func(r int) bool { return match(col[r], op, v) })
				same(fmt.Sprintf("RangeSet(%s %s %v)", key, op, v), got, rows)
				if c, _ := ti.RangeCount(key, op, v); c != len(rows) {
					t.Fatalf("RangeCount(%s %s %v) = %d, want %d", key, op, v, c, len(rows))
				}
				if len(sets) < 16 {
					sets, setRows = append(sets, got), append(setRows, rows)
				}
			}
		}
	}
	// Conjunctions: every pair of the sets gathered above.
	for i := range sets {
		for j := range sets {
			and := slices.Clone(sets[i])
			and.And(sets[j])
			want := brute(func(r int) bool {
				return slices.Contains(setRows[i], int32(r)) && slices.Contains(setRows[j], int32(r))
			})
			same(fmt.Sprintf("set %d AND set %d", i, j), and, want)
		}
	}
	withins := append([]Bitmap{nil, newBitmap(n)}, sets...)
	for key, col := range tab.Ints {
		for _, within := range withins {
			cand := brute(func(r int) bool { return within == nil || within.has(int32(r)) })
			for _, desc := range []bool{false, true} {
				sorted := slices.Clone(cand)
				sort.SliceStable(sorted, func(a, b int) bool {
					if desc {
						return col[sorted[a]] > col[sorted[b]]
					}
					return col[sorted[a]] < col[sorted[b]]
				})
				for _, k := range []int{0, 1, 3, len(cand), len(cand) + 2} {
					want := slices.Clone(sorted[:min(k, len(sorted))])
					slices.Sort(want)
					got, ok := ti.TopK(key, desc, k, within)
					if !ok || !slices.Equal(got, want) {
						t.Fatalf("TopK(%s, desc=%v, k=%d) within %v = %v, want %v", key, desc, k, cand, got, want)
					}
				}
			}
		}
	}
}

// randomTable draws an n-row table with two boolean and two integer
// columns, the integers from a small range so ties are common.
func randomTable(rng *rand.Rand, n int) Table {
	tab := Table{Name: "r", Rows: n, Bools: map[string][]bool{}, Ints: map[string][]int64{}}
	for _, key := range []string{"a", "b"} {
		col := make([]bool, n)
		density := rng.Intn(5) // 0: none true ... 4: all true
		for i := range col {
			col[i] = rng.Intn(4) < density
		}
		tab.Bools[key] = col
	}
	for _, key := range []string{"v", "w"} {
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.Intn(12) - 4)
		}
		tab.Ints[key] = col
	}
	return tab
}

// TestBitmapKernelsMatchBruteForce runs every kernel on random tables of
// 0 to 130 rows — every tail length, and the word boundaries at 64 and
// 128 — built directly and decoded from their encoding.
func TestBitmapKernelsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n <= 130; n++ {
		tab := randomTable(rng, n)
		ti, err := BuildTable(tab)
		if err != nil {
			t.Fatal(err)
		}
		checkKernels(t, ti, tab)
		data, err := Encode([]*TableIndex{ti})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		checkKernels(t, decoded["r"], tab)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ti := testTable(t)
	other, err := BuildTable(Table{
		Name: "empty",
		Rows: 0,
		Ints: map[string][]int64{"n": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode([]*TableIndex{ti, other})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode([]*TableIndex{other, ti})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("encoding is order-sensitive; must be a pure function of content")
	}

	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d tables", len(decoded))
	}
	got := decoded["things"]
	if got.Rows() != 6 || got.name != "things" {
		t.Fatalf("decoded table %q rows %d", got.name, got.Rows())
	}
	if !reflect.DeepEqual(got.boolKeys(), []string{"hot"}) || !reflect.DeepEqual(got.orderKeys(), []string{"score"}) {
		t.Fatalf("decoded keys: %v / %v", got.boolKeys(), got.orderKeys())
	}
	if rows, ok := got.RangeSet("score", ">=", 5); !ok || !reflect.DeepEqual(rows.Rows(), []int32{0, 2, 3}) {
		t.Fatalf("decoded RangeSet = %v, %v", rows.Rows(), ok)
	}
	if rows, ok := got.BoolSet("hot", true); !ok || !reflect.DeepEqual(rows.Rows(), []int32{0, 2, 5}) {
		t.Fatalf("decoded BoolSet = %v, %v", rows.Rows(), ok)
	}
}

// TestDecodeCorruption flips every byte of the artifact in turn: each
// mutation must fail loudly (container CRC or structural validation),
// never decode into a different valid index.
func TestDecodeCorruption(t *testing.T) {
	data, err := Encode([]*TableIndex{testTable(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(len(data))
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flipped bit at byte %d decoded cleanly", pos)
		}
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated artifact decoded cleanly")
	}
}

// TestDecodeStructuralValidation hand-builds artifacts with valid CRCs
// but broken invariants; each must surface ErrInvalid.
func TestDecodeStructuralValidation(t *testing.T) {
	build := func(mutate func(e *snapshot.Encoder)) []byte {
		e := snapshot.NewEncoder()
		mutate(e)
		data, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"unsorted postings": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{4})
			e.Strings(SectionPrefix+"t.bools", []string{"b"})
			e.Int32s(SectionPrefix+"t.bool.b", []int32{2, 1})
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0, 1, 2, 3})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1, 2, 3, 4})
		}),
		"postings out of range": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{2})
			e.Strings(SectionPrefix+"t.bools", []string{"b"})
			e.Int32s(SectionPrefix+"t.bool.b", []int32{5})
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0, 1})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1, 2})
		}),
		"rows without an ordering": unorderedRowsBlob(t),
		"boolean key repeated":     repeatedKeyBlob(t),
		"bitmaps exceed the blob":  manyKeysBlob(t),
		"ordering key repeated": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{2})
			e.Strings(SectionPrefix+"t.bools", nil)
			e.Strings(SectionPrefix+"t.ints", []string{"n", "n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0, 1})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1, 2})
		}),
		"ordering shorter than rows": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{1 << 27})
			e.Strings(SectionPrefix+"t.bools", []string{"b"})
			e.Int32s(SectionPrefix+"t.bool.b", nil)
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1})
		}),
		"perm not a permutation": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{3})
			e.Strings(SectionPrefix+"t.bools", nil)
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0, 0, 2})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1, 2, 3})
		}),
		"values unsorted": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{3})
			e.Strings(SectionPrefix+"t.bools", nil)
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{0, 1, 2})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{3, 1, 2})
		}),
		"tie order broken": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{3})
			e.Strings(SectionPrefix+"t.bools", nil)
			e.Strings(SectionPrefix+"t.ints", []string{"n"})
			e.Int32s(SectionPrefix+"t.order.n.perm", []int32{2, 1, 0})
			e.Int64s(SectionPrefix+"t.order.n.vals", []int64{1, 1, 2})
		}),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Decode err = %v, want ErrInvalid", name, err)
		}
	}
}

func TestBuildTableErrors(t *testing.T) {
	if _, err := BuildTable(Table{Rows: 1}); err == nil {
		t.Error("nameless table accepted")
	}
	if _, err := BuildTable(Table{Name: "t", Rows: 2, Bools: map[string][]bool{"b": {true}}}); err == nil {
		t.Error("short bool column accepted")
	}
	if _, err := BuildTable(Table{Name: "t", Rows: 2, Ints: map[string][]int64{"n": {1, 2, 3}}}); err == nil {
		t.Error("long int column accepted")
	}
	if _, err := BuildTable(Table{Name: "t", Rows: 2, Bools: map[string][]bool{"b": {true, false}}}); err == nil {
		t.Error("table with rows but no ordering accepted")
	}
}

// TestEncodeRefusesOversizedBitmaps: a table whose boolean bitmaps
// would outweigh its own blob is refused by Encode as Decode would
// refuse it, so every blob Encode writes decodes.
func TestEncodeRefusesOversizedBitmaps(t *testing.T) {
	tab := Table{Name: "t", Rows: 6400, Bools: map[string][]bool{}, Ints: map[string][]int64{"n": make([]int64, 6400)}}
	for i := 0; i < 200; i++ {
		tab.Bools[fmt.Sprintf("k%03d", i)] = make([]bool, tab.Rows)
	}
	ti, err := BuildTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := Encode([]*TableIndex{ti}); err == nil {
		t.Fatalf("Encode wrote a %d-byte blob holding %d bytes of bitmaps", len(data), bitmapBytes(200, tab.Rows))
	}
}

// TestBuildDeterministicOnRandomData cross-checks probes against brute
// force on seeded random tables, and that encode/decode preserves them.
func TestBuildDeterministicOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200)
		bools := make([]bool, n)
		ints := make([]int64, n)
		for i := range bools {
			bools[i] = rng.Intn(2) == 0
			ints[i] = int64(rng.Intn(20) - 10)
		}
		ti, err := BuildTable(Table{
			Name:  "r",
			Rows:  n,
			Bools: map[string][]bool{"b": bools},
			Ints:  map[string][]int64{"v": ints},
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := Encode([]*TableIndex{ti})
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ti = decoded["r"]

		v := float64(rng.Intn(20) - 10)
		got, _ := ti.RangeSet("v", ">=", v)
		var want []int32
		for r, val := range ints {
			if float64(val) >= v {
				want = append(want, int32(r))
			}
		}
		if !slices.Equal(got.Rows(), want) {
			t.Fatalf("trial %d: RangeSet mismatch", trial)
		}

		k := rng.Intn(10)
		topk, _ := ti.TopK("v", true, k, nil)
		type rv struct {
			row int32
			val int64
		}
		all := make([]rv, n)
		for i := range all {
			all[i] = rv{row: int32(i), val: ints[i]}
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].val > all[b].val })
		wantK := make([]int32, 0, k)
		for i := 0; i < k && i < n; i++ {
			wantK = append(wantK, all[i].row)
		}
		sort.Slice(wantK, func(a, b int) bool { return wantK[a] < wantK[b] })
		if !reflect.DeepEqual(topk, wantK) && !(len(topk) == 0 && len(wantK) == 0) {
			t.Fatalf("trial %d: TopK mismatch: got %v want %v", trial, topk, wantK)
		}
	}
}

// TestRadixOrderingMatchesStableSort: every ordering BuildTable makes is
// a stable sort of the row ids by value, on columns that exercise the
// sign flip (the int64 extremes, -1/0/1), the skipped passes (all equal,
// values apart only in the top byte) and counting buckets that fill a
// byte's range, at one worker and at four.
func TestRadixOrderingMatchesStableSort(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	rng := rand.New(rand.NewSource(7))
	columns := map[string]func(i int) int64{
		"extremes": func(int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.Intn(7)]
		},
		"signs":    func(int) int64 { return int64(rng.Intn(3) - 1) },
		"equal":    func(int) int64 { return -42 },
		"top-byte": func(int) int64 { return int64(uint64(rng.Intn(256))<<56 | 0x00ab_cdef_0123_4567) },
		"spread":   func(i int) int64 { return int64(rng.Uint64()) >> (i % 64) },
	}
	for _, workers := range []int{1, 4} {
		parallel.SetDefaultWorkers(workers)
		for _, rows := range []int{0, 1, 2, 255, 256, 65537} {
			ints := make(map[string][]int64, len(columns))
			for name, gen := range columns {
				col := make([]int64, rows)
				for i := range col {
					col[i] = gen(i)
				}
				ints[name] = col
			}
			ti, err := BuildTable(Table{Name: "r", Rows: rows, Ints: ints})
			if err != nil {
				t.Fatal(err)
			}
			for name, col := range ints {
				want := make([]int32, rows)
				for i := range want {
					want[i] = int32(i)
				}
				sort.SliceStable(want, func(a, b int) bool { return col[want[a]] < col[want[b]] })
				o := ti.orders[name]
				if !slices.Equal(o.perm, want) {
					t.Fatalf("workers %d, %d rows, %s: ordering differs from a stable sort", workers, rows, name)
				}
				for i, r := range want {
					if o.vals[i] != col[r] {
						t.Fatalf("workers %d, %d rows, %s: vals[%d] = %d, want %d", workers, rows, name, i, o.vals[i], col[r])
					}
				}
			}
		}
	}
}
