package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refBipartite is the reference the CSR kernels are tested against: the
// label-keyed builder graph FromRows, FilterLeftMinDegree and
// CapLeftDegree replaced. Nodes are created on first use and numbered in
// creation order, and parallel edges are deduplicated through a seen set.
type refBipartite struct {
	leftLabels  []string
	rightLabels []string
	leftIndex   map[string]int32
	rightIndex  map[string]int32
	fwd         [][]int32 // left -> right
	rev         [][]int32 // right -> left
	edges       int
	seen        map[[2]int32]struct{}
}

func newRefBipartite() *refBipartite {
	return &refBipartite{
		leftIndex:  map[string]int32{},
		rightIndex: map[string]int32{},
		seen:       map[[2]int32]struct{}{},
	}
}

// AddLeft inserts a left node if absent and returns its index.
func (b *refBipartite) AddLeft(label string) int32 {
	if idx, ok := b.leftIndex[label]; ok {
		return idx
	}
	idx := int32(len(b.leftLabels))
	b.leftLabels = append(b.leftLabels, label)
	b.leftIndex[label] = idx
	b.fwd = append(b.fwd, nil)
	return idx
}

// AddRight inserts a right node if absent and returns its index.
func (b *refBipartite) AddRight(label string) int32 {
	if idx, ok := b.rightIndex[label]; ok {
		return idx
	}
	idx := int32(len(b.rightLabels))
	b.rightLabels = append(b.rightLabels, label)
	b.rightIndex[label] = idx
	b.rev = append(b.rev, nil)
	return idx
}

// AddEdge inserts the edge left→right, creating endpoints as needed.
func (b *refBipartite) AddEdge(left, right string) {
	u := b.AddLeft(left)
	v := b.AddRight(right)
	key := [2]int32{u, v}
	if _, dup := b.seen[key]; dup {
		return
	}
	b.seen[key] = struct{}{}
	b.fwd[u] = append(b.fwd[u], v)
	b.rev[v] = append(b.rev[v], u)
	b.edges++
}

// SortAdjacency sorts every adjacency row ascending.
func (b *refBipartite) SortAdjacency() {
	for _, rows := range [][][]int32{b.fwd, b.rev} {
		for _, s := range rows {
			sort.Slice(s, func(a, c int) bool { return s[a] < s[c] })
		}
	}
}

// frozen converts the builder graph to a FrozenBipartite with the same
// numbering.
func (b *refBipartite) frozen() *FrozenBipartite {
	return FromIndexRows(b.leftLabels, b.rightLabels, b.fwd)
}

// referenceFilterLeftMinDegree is the builder filter: the edges of every
// left node with out-degree >= min, re-added by label in (left index,
// row order).
func referenceFilterLeftMinDegree(b *refBipartite, min int) *refBipartite {
	nb := newRefBipartite()
	for u, row := range b.fwd {
		if len(row) < min {
			continue
		}
		for _, r := range row {
			nb.AddEdge(b.leftLabels[u], b.rightLabels[r])
		}
	}
	return nb
}

// referenceCapLeftDegree is the builder degree cap: rows over cap keep a
// seeded reservoir sample of cap positions, re-added by label in row
// order.
func referenceCapLeftDegree(b *refBipartite, cap int, seed int64) *refBipartite {
	if cap < 1 {
		cap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	nb := newRefBipartite()
	keep := make([]int, cap)
	for u, row := range b.fwd {
		if len(row) <= cap {
			for _, r := range row {
				nb.AddEdge(b.leftLabels[u], b.rightLabels[r])
			}
			continue
		}
		for i := range keep {
			keep[i] = i
		}
		for i := cap; i < len(row); i++ {
			if j := rng.Intn(i + 1); j < cap {
				keep[j] = i
			}
		}
		sort.Ints(keep)
		for _, i := range keep {
			nb.AddEdge(b.leftLabels[u], b.rightLabels[row[i]])
		}
	}
	return nb
}

// requireMatchesReference fails unless got has want's label tables, node
// and edge counts, and forward and reverse rows; want must be sorted.
func requireMatchesReference(t *testing.T, got *FrozenBipartite, want *refBipartite) {
	t.Helper()
	if !slices.Equal(got.leftLabels, want.leftLabels) || !slices.Equal(got.rightLabels, want.rightLabels) {
		t.Fatalf("labels differ:\n left  %v\n want  %v\n right %v\n want  %v",
			got.leftLabels, want.leftLabels, got.rightLabels, want.rightLabels)
	}
	if got.NumRight() != len(want.rightLabels) || got.NumEdges() != want.edges {
		t.Fatalf("%d right nodes / %d edges, want %d / %d", got.NumRight(), got.NumEdges(), len(want.rightLabels), want.edges)
	}
	for u, row := range want.fwd {
		if !slices.Equal(got.Fwd(int32(u)), row) {
			t.Fatalf("fwd row %d = %v, want %v", u, got.Fwd(int32(u)), row)
		}
	}
	for v, row := range want.rev {
		if !slices.Equal(got.Rev(int32(v)), row) {
			t.Fatalf("rev row %d = %v, want %v", v, got.Rev(int32(v)), row)
		}
	}
}

// randomIdentityGraph builds the same seeded random graph twice: as the
// reference builder and through FromIndexRows, both over pre-created
// nodes inv-i and co-j numbered by i and j. Rows come unsorted, some
// with duplicate edges, and some left and right nodes have no edge.
func randomIdentityGraph(rng *rand.Rand) (*FrozenBipartite, *refBipartite) {
	nLeft, nRight := 1+rng.Intn(40), 1+rng.Intn(30)
	ref := newRefBipartite()
	left, right := make([]string, nLeft), make([]string, nRight)
	for u := range left {
		left[u] = fmt.Sprintf("inv-%d", u)
		ref.AddLeft(left[u])
	}
	for v := range right {
		right[v] = fmt.Sprintf("co-%d", v)
		ref.AddRight(right[v])
	}
	rows := make([][]int32, nLeft)
	for u := range rows {
		if rng.Intn(6) == 0 {
			continue
		}
		for i := rng.Intn(12); i >= 0; i-- {
			v := int32(rng.Intn(nRight))
			rows[u] = append(rows[u], v)
			ref.AddEdge(left[u], right[v])
		}
	}
	ref.SortAdjacency()
	return FromIndexRows(left, right, rows), ref
}

// TestFilterAndCapMatchReference holds the index-space kernels to the
// builder filters on seeded random graphs: for every min in 0–5, the
// filter, and for every cap in 1–4 and three seeds, the cap of the
// filtered graph, give the reference's labels and rows after its
// SortAdjacency — survivors in left order, right nodes numbered by first
// appearance, the reservoir walk unchanged.
func TestFilterAndCapMatchReference(t *testing.T) {
	for g := int64(1); g <= 40; g++ {
		got, ref := randomIdentityGraph(rand.New(rand.NewSource(g)))
		requireMatchesReference(t, got, ref)
		for min := 0; min <= 5; min++ {
			filtered := FilterLeftMinDegree(got, min)
			refFiltered := referenceFilterLeftMinDegree(ref, min)
			refFiltered.SortAdjacency()
			requireMatchesReference(t, filtered, refFiltered)
			for cap := 1; cap <= 4; cap++ {
				for seed := int64(1); seed <= 3; seed++ {
					want := referenceCapLeftDegree(refFiltered, cap, seed)
					want.SortAdjacency()
					requireMatchesReference(t, CapLeftDegree(filtered, cap, seed), want)
				}
			}
		}
	}
}
