package community

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crowdscope/internal/graph"
)

// BigCLAM fits the undirected cluster-affiliation model (Yang–Leskovec,
// WSDM'13) to the one-mode projection of the investor graph: investors are
// linked when they co-invested in at least minShared companies, and
// p(u,v) = 1 − exp(−F_u·F_v). It is the natural baseline for CoDA — what
// the paper's analysis would look like if the bipartite structure were
// projected away first.
type BigCLAM struct {
	K    int
	Seed int64
}

// Name implements Detector.
func (b *BigCLAM) Name() string { return "bigclam" }

// Detect implements Detector.
func (b *BigCLAM) Detect(bp *graph.FrozenBipartite) (*Assignment, error) {
	if b.K <= 0 {
		return nil, fmt.Errorf("community: BigCLAM needs K > 0, got %d", b.K)
	}
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	p := graph.ProjectLeft(bp, minShared)
	edges := p.NumEdges()
	if edges == 0 {
		return &Assignment{}, nil
	}

	rng := rand.New(rand.NewSource(b.Seed))
	K := b.K
	F := newMatrix(n, K)
	// Seed from high-degree nodes' neighborhoods plus noise scaled so a
	// column's total background mass stays O(1) (see CoDA.seed).
	noise := 2.0 / float64(n)
	for u := range F {
		for k := range F[u] {
			F[u][k] = rng.Float64() * noise
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := p.Degree(int32(order[i])), p.Degree(int32(order[j]))
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	claimed := make([]bool, n)
	k := 0
	for _, u := range order {
		if k >= K {
			break
		}
		if claimed[u] {
			continue
		}
		F[u][k] = 1
		claimed[u] = true
		nbrs, _ := p.Row(int32(u))
		for _, v := range nbrs {
			F[v][k] = 1
			claimed[v] = true
		}
		k++
	}

	SF := colSums(F, K)
	scratch := newRowScratch(K)
	prevL := math.Inf(-1)
	for iter := 0; iter < fitMaxIter; iter++ {
		var total float64
		for u := 0; u < n; u++ {
			// Exclude self from the non-neighbor sum.
			for j := 0; j < K; j++ {
				SF[j] -= F[u][j]
			}
			nbrs, _ := p.Row(int32(u))
			total += updateRow(F[u], nbrs, F, SF, scratch, scratch.diff[:K])
			for j := 0; j < K; j++ {
				SF[j] += F[u][j]
			}
		}
		if prevL != math.Inf(-1) {
			denom := math.Abs(prevL)
			if denom < 1e-12 {
				denom = 1e-12
			}
			if (total-prevL)/denom < fitTol && total >= prevL {
				break
			}
		}
		prevL = total
	}

	eps := 2 * float64(edges) / (float64(n) * float64(n-1))
	if eps >= 1 {
		eps = 0.999
	}
	delta := math.Sqrt(-math.Log(1 - eps))
	a := &Assignment{Investors: make([][]int32, K)}
	for u := 0; u < n; u++ {
		for j := 0; j < K; j++ {
			if F[u][j] >= delta {
				a.Investors[j] = append(a.Investors[j], int32(u))
			}
		}
	}
	var inv [][]int32
	for _, m := range a.Investors {
		if len(m) >= minMembers {
			inv = append(inv, m)
		}
	}
	a.Investors = inv
	a.normalize()
	return a, nil
}
