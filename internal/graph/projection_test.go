package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// weightedEdge is one undirected projection edge, U < V.
type weightedEdge struct {
	U, V   int32
	Weight float64
}

// referenceProjectLeft is the pair-counting projection: every pair of a
// company's investors is counted in a hash map, then the pairs sharing
// at least minShared companies are sorted by (U, V). ProjectLeft must
// give exactly these edges.
func referenceProjectLeft(b *FrozenBipartite, minShared int) []weightedEdge {
	if minShared < 1 {
		minShared = 1
	}
	weights := make(map[[2]int32]int)
	for v := int32(0); int(v) < b.NumRight(); v++ {
		investors := b.Rev(v)
		for i := 0; i < len(investors); i++ {
			for j := i + 1; j < len(investors); j++ {
				a, c := investors[i], investors[j]
				if a > c {
					a, c = c, a
				}
				weights[[2]int32{a, c}]++
			}
		}
	}
	edges := make([]weightedEdge, 0, len(weights))
	for k, w := range weights {
		if w >= minShared {
			edges = append(edges, weightedEdge{U: k[0], V: k[1], Weight: float64(w)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// numNodes returns the number of rows.
func (c *csr) numNodes() int { return len(c.offsets) - 1 }

// edgesOf lists p's edges once each, U < V, in (U, V) order.
func edgesOf(p *Projection) []weightedEdge {
	edges := []weightedEdge{}
	for u := int32(0); int(u) < p.numNodes(); u++ {
		nbrs, ws := p.Row(u)
		for i, v := range nbrs {
			if u < v {
				edges = append(edges, weightedEdge{U: u, V: v, Weight: ws[i]})
			}
		}
	}
	return edges
}

// checkRows fails unless every row of p is strictly ascending, holds no
// self-loop, and is mirrored with the same weight in each neighbour's row.
func checkRows(t *testing.T, p *Projection) {
	t.Helper()
	for u := int32(0); int(u) < p.numNodes(); u++ {
		nbrs, ws := p.Row(u)
		if len(nbrs) != p.Degree(u) || len(ws) != len(nbrs) {
			t.Fatalf("row %d: %d neighbours, %d weights, degree %d", u, len(nbrs), len(ws), p.Degree(u))
		}
		for i, v := range nbrs {
			if i > 0 && nbrs[i-1] >= v {
				t.Fatalf("row %d not strictly ascending: %v", u, nbrs)
			}
			if v == u {
				t.Fatalf("row %d holds a self-loop", u)
			}
			back, bws := p.Row(v)
			j, ok := slices.BinarySearch(back, u)
			if !ok || bws[j] != ws[i] {
				t.Fatalf("edge %d-%d (weight %g) not mirrored in row %d", u, v, ws[i], v)
			}
		}
	}
}

// TestProjectLeftMatchesPairCountingReference checks the CSR kernel
// against the pair-counting reference on seeded random graphs at
// minShared 0 to 3.
func TestProjectLeftMatchesPairCountingReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left, right := 1+rng.Intn(40), 1+rng.Intn(25)
		ref := newRefBipartite()
		for i := rng.Intn(5 * left); i > 0; i-- {
			ref.AddEdge("inv-"+itoa(rng.Intn(left)), "co-"+itoa(rng.Intn(right)))
		}
		b := ref.frozen()
		for minShared := 0; minShared <= 3; minShared++ {
			p := ProjectLeft(b, minShared)
			checkRows(t, p)
			want := referenceProjectLeft(b, minShared)
			if got := edgesOf(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d minShared %d: edges %v, want %v", seed, minShared, got, want)
			}
			if p.numNodes() != b.NumLeft() || p.NumEdges() != len(want) {
				t.Fatalf("seed %d minShared %d: %d nodes, %d edges; want %d, %d",
					seed, minShared, p.numNodes(), p.NumEdges(), b.NumLeft(), len(want))
			}
		}
	}
}

// TestCollapseSumsGroupWeights checks Collapse against a dense group-by-
// group sum over the edges of random projections.
func TestCollapseSumsGroupWeights(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left, right := 2+rng.Intn(30), 1+rng.Intn(20)
		b := newRefBipartite()
		for i := 1 + rng.Intn(5*left); i > 0; i-- {
			b.AddEdge("inv-"+itoa(rng.Intn(left)), "co-"+itoa(rng.Intn(right)))
		}
		p := ProjectLeft(b.frozen(), 1)
		k := 1 + rng.Intn(p.numNodes())
		group := make([]int, p.numNodes())
		for u := range group {
			group[u] = rng.Intn(k)
		}
		wantLoops := make([]float64, k)
		between := make([][]float64, k)
		for g := range between {
			between[g] = make([]float64, k)
		}
		for _, e := range edgesOf(p) {
			g, h := group[e.U], group[e.V]
			if g == h {
				wantLoops[g] += e.Weight
			} else {
				between[g][h] += e.Weight
				between[h][g] += e.Weight
			}
		}
		q, loops := p.Collapse(group, k)
		checkRows(t, q)
		if !reflect.DeepEqual(loops, wantLoops) {
			t.Fatalf("seed %d: loops %v, want %v", seed, loops, wantLoops)
		}
		want := []weightedEdge{}
		for g := range k {
			for h := g + 1; h < k; h++ {
				if between[g][h] > 0 {
					want = append(want, weightedEdge{U: int32(g), V: int32(h), Weight: between[g][h]})
				}
			}
		}
		if got := edgesOf(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: collapsed edges %v, want %v", seed, got, want)
		}
	}
}
