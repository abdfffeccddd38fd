package graph

import (
	"fmt"
	"sort"
)

// Bipartite is a directed two-mode graph from "left" nodes to "right"
// nodes — in the paper, investment edges from investors to the companies
// they invested in (Section 5.1). Left and right label spaces are
// independent. Parallel edges are deduplicated.
type Bipartite struct {
	leftLabels  []string
	rightLabels []string
	leftIndex   map[string]int32
	rightIndex  map[string]int32
	fwd         [][]int32 // left -> right
	rev         [][]int32 // right -> left
	edges       int
	seen        map[[2]int32]struct{}
}

// NewBipartite returns an empty bipartite graph with capacity hints.
func NewBipartite(leftHint, rightHint int) *Bipartite {
	return &Bipartite{
		leftLabels:  make([]string, 0, leftHint),
		rightLabels: make([]string, 0, rightHint),
		leftIndex:   make(map[string]int32, leftHint),
		rightIndex:  make(map[string]int32, rightHint),
		fwd:         make([][]int32, 0, leftHint),
		rev:         make([][]int32, 0, rightHint),
		seen:        make(map[[2]int32]struct{}),
	}
}

// AddLeft inserts a left node if absent and returns its index.
func (b *Bipartite) AddLeft(label string) int32 {
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
func (b *Bipartite) AddRight(label string) int32 {
	if idx, ok := b.rightIndex[label]; ok {
		return idx
	}
	idx := int32(len(b.rightLabels))
	b.rightLabels = append(b.rightLabels, label)
	b.rightIndex[label] = idx
	b.rev = append(b.rev, nil)
	return idx
}

// AddEdge inserts the edge left→right, creating endpoints as needed, and
// reports whether it was new.
func (b *Bipartite) AddEdge(left, right string) bool {
	u := b.AddLeft(left)
	v := b.AddRight(right)
	key := [2]int32{u, v}
	if _, dup := b.seen[key]; dup {
		return false
	}
	b.seen[key] = struct{}{}
	b.fwd[u] = append(b.fwd[u], v)
	b.rev[v] = append(b.rev[v], u)
	b.edges++
	return true
}

// HasEdge reports whether the labeled edge exists.
func (b *Bipartite) HasEdge(left, right string) bool {
	u, ok := b.leftIndex[left]
	if !ok {
		return false
	}
	v, ok := b.rightIndex[right]
	if !ok {
		return false
	}
	_, ok = b.seen[[2]int32{u, v}]
	return ok
}

// NumLeft returns the number of left (investor) nodes.
func (b *Bipartite) NumLeft() int { return len(b.leftLabels) }

// NumRight returns the number of right (company) nodes.
func (b *Bipartite) NumRight() int { return len(b.rightLabels) }

// NumEdges returns the number of edges.
func (b *Bipartite) NumEdges() int { return b.edges }

// LeftLabel returns the label of left node idx.
func (b *Bipartite) LeftLabel(idx int32) string { return b.leftLabels[idx] }

// RightLabel returns the label of right node idx.
func (b *Bipartite) RightLabel(idx int32) string { return b.rightLabels[idx] }

// LeftIndex resolves a left label.
func (b *Bipartite) LeftIndex(label string) (int32, bool) {
	idx, ok := b.leftIndex[label]
	return idx, ok
}

// RightIndex resolves a right label.
func (b *Bipartite) RightIndex(label string) (int32, bool) {
	idx, ok := b.rightIndex[label]
	return idx, ok
}

// Fwd returns the right-neighbors of left node idx (the companies an
// investor invested in). Owned by the graph; do not modify.
func (b *Bipartite) Fwd(idx int32) []int32 { return b.fwd[idx] }

// Rev returns the left-neighbors of right node idx (the investors of a
// company). Owned by the graph; do not modify.
func (b *Bipartite) Rev(idx int32) []int32 { return b.rev[idx] }

// OutDegree returns the out-degree of a left node — the paper's "number of
// companies invested".
func (b *Bipartite) OutDegree(idx int32) int { return len(b.fwd[idx]) }

// InDegree returns the in-degree of a right node — the paper's "number of
// investors of a company".
func (b *Bipartite) InDegree(idx int32) int { return len(b.rev[idx]) }

// SortAdjacency sorts all adjacency lists, making shared-neighbor
// intersections O(d1+d2) and iteration deterministic.
func (b *Bipartite) SortAdjacency() {
	for i := range b.fwd {
		s := b.fwd[i]
		sort.Slice(s, func(a, c int) bool { return s[a] < s[c] })
	}
	for i := range b.rev {
		s := b.rev[i]
		sort.Slice(s, func(a, c int) bool { return s[a] < s[c] })
	}
}

// Validate checks the fwd/rev mirror invariant and edge accounting.
func (b *Bipartite) Validate() error {
	var fwdSum, revSum int
	for i := range b.fwd {
		fwdSum += len(b.fwd[i])
	}
	for i := range b.rev {
		revSum += len(b.rev[i])
	}
	if fwdSum != b.edges || revSum != b.edges {
		return fmt.Errorf("bipartite: degree sums (fwd=%d rev=%d) disagree with edge count %d", fwdSum, revSum, b.edges)
	}
	for u := range b.fwd {
		for _, v := range b.fwd[u] {
			found := false
			for _, w := range b.rev[v] {
				if int(w) == u {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("bipartite: edge (%d,%d) missing from rev-adjacency", u, v)
			}
		}
	}
	return nil
}
