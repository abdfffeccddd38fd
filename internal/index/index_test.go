package index

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

func TestEqBoolAndCounts(t *testing.T) {
	ti := testTable(t)
	if got, ok := ti.EqBool("hot", true); !ok || !reflect.DeepEqual(got, []int32{0, 2, 5}) {
		t.Fatalf("EqBool(hot,true) = %v, %v", got, ok)
	}
	if got, ok := ti.EqBool("hot", false); !ok || !reflect.DeepEqual(got, []int32{1, 3, 4}) {
		t.Fatalf("EqBool(hot,false) = %v, %v", got, ok)
	}
	if n, ok := ti.BoolCount("hot", true); !ok || n != 3 {
		t.Fatalf("BoolCount(hot,true) = %d, %v", n, ok)
	}
	if n, ok := ti.BoolCount("hot", false); !ok || n != 3 {
		t.Fatalf("BoolCount(hot,false) = %d, %v", n, ok)
	}
	if _, ok := ti.EqBool("missing", true); ok {
		t.Fatal("EqBool on unindexed attribute reported ok")
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	col := []int64{5, 3, 5, 9, 1, 3}
	ti := testTable(t)
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	thresholds := []float64{-1, 1, 2.5, 3, 5, 5.5, 9, 12}
	for _, op := range ops {
		for _, v := range thresholds {
			got, ok := ti.Range("score", op, v)
			if !ok {
				t.Fatalf("Range(score,%s,%v) not ok", op, v)
			}
			var want []int32
			for r, val := range col {
				f := float64(val)
				match := false
				switch op {
				case "=":
					match = f == v
				case "!=":
					match = f != v
				case "<":
					match = f < v
				case "<=":
					match = f <= v
				case ">":
					match = f > v
				case ">=":
					match = f >= v
				}
				if match {
					want = append(want, int32(r))
				}
			}
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("Range(score,%s,%v) = %v, want %v", op, v, got, want)
			}
			if n, ok := ti.RangeCount("score", op, v); !ok || n != len(want) {
				t.Fatalf("RangeCount(score,%s,%v) = %d, want %d", op, v, n, len(want))
			}
		}
	}
	if _, ok := ti.Range("score", "~", 1); ok {
		t.Fatal("unknown operator reported ok")
	}
	if _, ok := ti.Range("missing", ">", 1); ok {
		t.Fatal("unindexed column reported ok")
	}
}

// TestTopKStableTies pins the tie-breaking contract: within equal
// values, lower row ids win slots first — in both directions — exactly
// like the scan path's stable sort.
func TestTopKStableTies(t *testing.T) {
	ti := testTable(t)
	// Ascending by score: 1(r4) 3(r1) 3(r5) 5(r0) 5(r2) 9(r3).
	if got, ok := ti.TopK("score", false, 3); !ok || !reflect.DeepEqual(got, []int32{1, 4, 5}) {
		t.Fatalf("TopK(asc,3) = %v, %v", got, ok)
	}
	// Descending: 9(r3) 5(r0) 5(r2) 3(r1) 3(r5) 1(r4).
	if got, ok := ti.TopK("score", true, 3); !ok || !reflect.DeepEqual(got, []int32{0, 2, 3}) {
		t.Fatalf("TopK(desc,3) = %v, %v", got, ok)
	}
	if got, ok := ti.TopK("score", true, 100); !ok || len(got) != 6 {
		t.Fatalf("TopK(desc,100) = %v, %v", got, ok)
	}
	// Restricted to the hot rows {0,2,5}: descending scores 5(r0) 5(r2) 3(r5).
	within := []int32{0, 2, 5}
	if got, ok := ti.TopKWithin("score", true, 2, within); !ok || !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("TopKWithin(desc,2) = %v, %v", got, ok)
	}
	if got, ok := ti.TopKWithin("score", false, 2, within); !ok || !reflect.DeepEqual(got, []int32{0, 5}) {
		t.Fatalf("TopKWithin(asc,2) = %v, %v", got, ok)
	}
}

func TestIntersect(t *testing.T) {
	got := Intersect([]int32{1, 3, 5, 7}, []int32{2, 3, 4, 7, 9})
	if !reflect.DeepEqual(got, []int32{3, 7}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := Intersect(nil, []int32{1}); len(got) != 0 {
		t.Fatalf("Intersect(nil,x) = %v", got)
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
	if rows, ok := got.Range("score", ">=", 5); !ok || !reflect.DeepEqual(rows, []int32{0, 2, 3}) {
		t.Fatalf("decoded Range = %v, %v", rows, ok)
	}
	if rows, ok := got.EqBool("hot", true); !ok || !reflect.DeepEqual(rows, []int32{0, 2, 5}) {
		t.Fatalf("decoded EqBool = %v, %v", rows, ok)
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
			e.Strings(SectionPrefix+"t.ints", nil)
		}),
		"postings out of range": build(func(e *snapshot.Encoder) {
			e.Strings(SectionPrefix+"tables", []string{"t"})
			e.Int64s(SectionPrefix+"t.rows", []int64{2})
			e.Strings(SectionPrefix+"t.bools", []string{"b"})
			e.Int32s(SectionPrefix+"t.bool.b", []int32{5})
			e.Strings(SectionPrefix+"t.ints", nil)
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
		got, _ := ti.Range("v", ">=", v)
		var want []int32
		for r, val := range ints {
			if float64(val) >= v {
				want = append(want, int32(r))
			}
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: Range mismatch", trial)
		}

		k := rng.Intn(10)
		topk, _ := ti.TopK("v", true, k)
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
