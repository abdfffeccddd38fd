package graph

import (
	"fmt"
	"sort"
	"sync"
)

// FrozenBipartite is the immutable form of a Bipartite, backed directly
// by flat arrays: left and right label tables plus fwd (left→right) and
// rev (right→left) CSR adjacency, exactly as loaded from a snapshot.
// Wrapping loaded arrays copies and rebuilds nothing; the label→index
// maps are built lazily on first lookup. Safe for concurrent use.
type FrozenBipartite struct {
	leftLabels  []string
	rightLabels []string
	fwd         *CSR
	rev         *CSR
	// sortedRows records whether every fwd row is ascending, deciding
	// whether HasEdge may binary-search.
	sortedRows bool

	leftOnce  sync.Once
	leftIdx   map[string]int32
	rightOnce sync.Once
	rightIdx  map[string]int32
}

// NewFrozenBipartite wraps label tables and CSR adjacency into a
// read-only bipartite graph. Arrays are adopted, not copied.
func NewFrozenBipartite(leftLabels, rightLabels []string, fwd, rev *CSR) (*FrozenBipartite, error) {
	if fwd.numNodes() != len(leftLabels) {
		return nil, fmt.Errorf("graph: frozen bipartite left counts disagree (labels=%d fwd=%d)",
			len(leftLabels), fwd.numNodes())
	}
	if rev.numNodes() != len(rightLabels) {
		return nil, fmt.Errorf("graph: frozen bipartite right counts disagree (labels=%d rev=%d)",
			len(rightLabels), rev.numNodes())
	}
	if len(fwd.Targets) != len(rev.Targets) {
		return nil, fmt.Errorf("graph: frozen bipartite edge counts disagree (fwd=%d rev=%d)",
			len(fwd.Targets), len(rev.Targets))
	}
	fb := &FrozenBipartite{leftLabels: leftLabels, rightLabels: rightLabels, fwd: fwd, rev: rev}
	fb.sortedRows = csrRowsSorted(fwd)
	return fb, nil
}

// FreezeBipartite snapshots a Bipartite into its immutable flat-array
// form, preserving adjacency order exactly.
func FreezeBipartite(b *Bipartite) *FrozenBipartite {
	left := make([]string, b.NumLeft())
	copy(left, b.leftLabels)
	right := make([]string, b.NumRight())
	copy(right, b.rightLabels)
	fb, err := NewFrozenBipartite(left, right, buildCSR(b.fwd, b.edges), buildCSR(b.rev, b.edges))
	if err != nil {
		// Unreachable: Bipartite maintains the mirror invariant.
		panic(err)
	}
	return fb
}

// NumLeft returns the number of left (investor) nodes.
func (f *FrozenBipartite) NumLeft() int { return len(f.leftLabels) }

// NumRight returns the number of right (company) nodes.
func (f *FrozenBipartite) NumRight() int { return len(f.rightLabels) }

// NumEdges returns the number of edges.
func (f *FrozenBipartite) NumEdges() int { return len(f.fwd.Targets) }

// LeftLabel returns the label of left node idx.
func (f *FrozenBipartite) LeftLabel(idx int32) string { return f.leftLabels[idx] }

// RightLabel returns the label of right node idx.
func (f *FrozenBipartite) RightLabel(idx int32) string { return f.rightLabels[idx] }

// LeftIndex resolves a left label; the lookup map is built on first use.
func (f *FrozenBipartite) LeftIndex(label string) (int32, bool) {
	f.leftOnce.Do(func() {
		f.leftIdx = make(map[string]int32, len(f.leftLabels))
		for i, l := range f.leftLabels {
			f.leftIdx[l] = int32(i)
		}
	})
	idx, ok := f.leftIdx[label]
	return idx, ok
}

// RightIndex resolves a right label; the lookup map is built on first use.
func (f *FrozenBipartite) RightIndex(label string) (int32, bool) {
	f.rightOnce.Do(func() {
		f.rightIdx = make(map[string]int32, len(f.rightLabels))
		for i, l := range f.rightLabels {
			f.rightIdx[l] = int32(i)
		}
	})
	idx, ok := f.rightIdx[label]
	return idx, ok
}

// Fwd returns the right-neighbors of left node idx. The slice aliases the
// frozen arrays and must not be modified.
func (f *FrozenBipartite) Fwd(idx int32) []int32 { return f.fwd.row(idx) }

// Rev returns the left-neighbors of right node idx. The slice aliases the
// frozen arrays and must not be modified.
func (f *FrozenBipartite) Rev(idx int32) []int32 { return f.rev.row(idx) }

// OutDegree returns the out-degree of a left node.
func (f *FrozenBipartite) OutDegree(idx int32) int { return f.fwd.degree(idx) }

// InDegree returns the in-degree of a right node.
func (f *FrozenBipartite) InDegree(idx int32) int { return f.rev.degree(idx) }

// HasEdge reports whether the labeled edge exists. Sorted rows (the
// normal case — snapshots are written after SortAdjacency) are binary-
// searched; unsorted rows fall back to a linear scan.
func (f *FrozenBipartite) HasEdge(left, right string) bool {
	u, ok := f.LeftIndex(left)
	if !ok {
		return false
	}
	r, ok := f.RightIndex(right)
	if !ok {
		return false
	}
	row := f.fwd.row(u)
	if f.sortedRows {
		i := sort.Search(len(row), func(i int) bool { return row[i] >= r })
		return i < len(row) && row[i] == r
	}
	for _, v := range row {
		if v == r {
			return true
		}
	}
	return false
}

// csrRowsSorted reports whether every row of c is ascending.
func csrRowsSorted(c *CSR) bool {
	for u := 0; u < c.numNodes(); u++ {
		row := c.row(int32(u))
		for i := 1; i < len(row); i++ {
			if row[i-1] > row[i] {
				return false
			}
		}
	}
	return true
}
