package community

import (
	"math"
	"math/rand"
	"testing"
)

// refScratch is the buffer set the reference row kernel below uses.
type refScratch struct {
	grad, nbrSum, newX, nbr []float64
	diff                    []float64
}

func newRefScratch(k int) *refScratch {
	return &refScratch{
		grad:   make([]float64, k),
		nbrSum: make([]float64, k),
		newX:   make([]float64, k),
		nbr:    make([]float64, k),
		diff:   make([]float64, k),
	}
}

// refUpdateRow and refRowLikelihood are the unfused row kernel the fused
// one replaced, kept as the reference it must match bit for bit: one
// gradient pass, a full likelihood re-evaluation for the base value and
// for every line-search step, each re-summing the neighbour rows.
func refUpdateRow(X []float64, neighbors []int32, other [][]float64, sumOther []float64, sc *refScratch) float64 {
	K := len(X)
	grad := sc.grad
	nbrSum := sc.nbrSum
	for k := 0; k < K; k++ {
		grad[k] = 0
		nbrSum[k] = 0
		sc.diff[k] = 0
	}
	// Gradient: Σ_{v∈N} other_v * e^{-x}/(1-e^{-x}) − (sumOther − Σ_{v∈N} other_v).
	for _, v := range neighbors {
		row := other[v]
		dot := dotClamped(X, row)
		e := math.Exp(-dot)
		coef := e / (1 - e)
		for k := 0; k < K; k++ {
			grad[k] += row[k] * coef
			nbrSum[k] += row[k]
		}
	}
	for k := 0; k < K; k++ {
		grad[k] -= sumOther[k] - nbrSum[k]
	}
	// Backtracking line search on the row likelihood.
	base := refRowLikelihood(X, neighbors, other, sumOther, sc.nbr)
	eta := 0.05
	newX := sc.newX
	for step := 0; step < 10; step++ {
		for k := 0; k < K; k++ {
			v := X[k] + eta*grad[k]
			if v < 0 {
				v = 0
			}
			if v > 1000 {
				v = 1000
			}
			newX[k] = v
		}
		if l := refRowLikelihood(newX, neighbors, other, sumOther, sc.nbr); l > base {
			for k := 0; k < K; k++ {
				sc.diff[k] = newX[k] - X[k]
				X[k] = newX[k]
			}
			return l
		}
		eta /= 2
	}
	return base
}

func refRowLikelihood(X []float64, neighbors []int32, other [][]float64, sumOther, nbr []float64) float64 {
	var l float64
	for k := range nbr {
		nbr[k] = 0
	}
	for _, v := range neighbors {
		row := other[v]
		dot := dotClamped(X, row)
		l += math.Log(1 - math.Exp(-dot))
		for k := range nbr {
			nbr[k] += row[k]
		}
	}
	for k := range X {
		l -= X[k] * (sumOther[k] - nbr[k])
	}
	return l
}

// TestUpdateRowMatchesReference drives the fused row kernel and the
// reference through the same rows and compares the updated row, the
// cache delta and the returned likelihood bit for bit.
func TestUpdateRowMatchesReference(t *testing.T) {
	const K = 6
	rng := rand.New(rand.NewSource(28))
	randRow := func(scale float64) []float64 {
		r := make([]float64, K)
		for k := range r {
			r[k] = rng.Float64() * scale
		}
		return r
	}
	type rowCase struct {
		name     string
		X        []float64
		other    [][]float64
		nbrs     []int32
		sumOther []float64
	}
	// build fills in a consistent sumOther (the column sums of other),
	// shifted by drift to model a cache that has wandered off its exact
	// value.
	build := func(name string, X []float64, other [][]float64, nbrs []int32, drift float64) rowCase {
		s := colSums(other, K)
		for k := range s {
			s[k] += drift
		}
		return rowCase{name, X, other, nbrs, s}
	}
	randOther := func(n int, scale float64) [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = randRow(scale)
		}
		return m
	}
	randNbrs := func(n, deg int) []int32 {
		perm := rng.Perm(n)[:deg]
		out := make([]int32, deg)
		for i, v := range perm {
			out[i] = int32(v)
		}
		return out
	}

	var cases []rowCase
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(40)
		cases = append(cases, build("random", randRow(2), randOther(n, 1.5), randNbrs(n, rng.Intn(n+1)), 0))
	}
	other := randOther(20, 1)
	// Five neighbours whose dots with bigX are so large that every
	// log(1−e^{−dot}) rounds to 0, beside a tiny non-neighbour mass.
	bigX := randRow(1)
	for k := range bigX {
		bigX[k] += 50
	}
	saturated := append(randOther(5, 1), randOther(15, 1e-13)...)
	cases = append(cases,
		build("all-zero X", make([]float64, K), other, randNbrs(20, 7), 0),
		build("clamped at 1000", []float64{1000, 999.99, 1000, 0, 1000, 500}, other, randNbrs(20, 5), 0),
		build("dots under the 1e-10 clamp", randRow(1e-12), randOther(10, 1e-12), randNbrs(10, 6), 0),
		build("negative rest from drift", randRow(1), other, randNbrs(20, 20), -1e-9),
		build("empty neighbour list", randRow(1), other, nil, 0),
		build("empty neighbour list, zero X", make([]float64, K), other, nil, 0),
		// Steps that gain only a few ulps over base: a rejection test
		// with any slack would turn these down.
		build("near tie, tiny column mass", randRow(1), randOther(20, 1e-13), nil, 0),
		build("near tie, saturated dots", bigX, saturated, []int32{0, 1, 2, 3, 4}, 0),
	)
	sc := newRowScratch(K)
	ref := newRefScratch(K)
	diff := make([]float64, K)
	for i, c := range cases {
		// Three successive updates per row, so later steps start from
		// whatever the first ones produced (clamped entries included).
		X1 := append([]float64(nil), c.X...)
		X2 := append([]float64(nil), c.X...)
		for round := 0; round < 3; round++ {
			got := updateRow(X1, c.nbrs, c.other, c.sumOther, sc, diff)
			want := refUpdateRow(X2, c.nbrs, c.other, c.sumOther, ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (%s) round %d: likelihood %v, reference %v", i, c.name, round, got, want)
			}
			for k := 0; k < K; k++ {
				if math.Float64bits(X1[k]) != math.Float64bits(X2[k]) {
					t.Fatalf("case %d (%s) round %d: X[%d] = %v, reference %v", i, c.name, round, k, X1[k], X2[k])
				}
				if math.Float64bits(diff[k]) != math.Float64bits(ref.diff[k]) {
					t.Fatalf("case %d (%s) round %d: diff[%d] = %v, reference %v", i, c.name, round, k, diff[k], ref.diff[k])
				}
			}
		}
	}
}
