package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// FrozenBipartite is the immutable form of a bipartite graph, backed
// directly by flat arrays: left and right label tables plus fwd
// (left→right) and rev (right→left) CSR adjacency. The label→index maps
// are built lazily on first lookup. Safe for concurrent use.
type FrozenBipartite struct {
	leftLabels  []string
	rightLabels []string
	fwd         *csr
	rev         *csr
	// sortedRows records whether every fwd row is ascending, deciding
	// whether HasEdge may binary-search.
	sortedRows bool

	leftOnce  sync.Once
	leftIdx   map[string]int32
	rightOnce sync.Once
	rightIdx  map[string]int32
}

// newFrozenBipartite wraps label tables and CSR adjacency into a
// read-only bipartite graph. Arrays are adopted, not copied; both
// callers build them consistent by construction.
func newFrozenBipartite(leftLabels, rightLabels []string, fwd, rev *csr) *FrozenBipartite {
	return &FrozenBipartite{leftLabels: leftLabels, rightLabels: rightLabels, fwd: fwd, rev: rev,
		sortedRows: csrRowsSorted(fwd)}
}

// FreezeBipartite snapshots a Bipartite into its immutable flat-array
// form, preserving adjacency order exactly.
func FreezeBipartite(b *Bipartite) *FrozenBipartite {
	left := make([]string, b.NumLeft())
	copy(left, b.leftLabels)
	right := make([]string, b.NumRight())
	copy(right, b.rightLabels)
	return newFrozenBipartite(left, right, buildCSR(b.fwd, b.edges), buildCSR(b.rev, b.edges))
}

// AdjacencyRow is one left node's raw edge list by label, in original
// (load-bearing) order: for the investment graph, an investor and the
// company IDs it reports, duplicates and all.
type AdjacencyRow struct {
	Left   string
	Rights []string
}

// FromRows is the CSR kernel every frozen snapshot's graph is built by:
// it turns adjacency rows sorted by left label — a freeze's freshly
// loaded rows, a decoded artifact's rows, or a previous snapshot's
// retained rows plus a delta's upserted ones — into the frozen CSR,
// without the intermediate builder graph or its per-edge hash set.
//
// Its contract (TestFromRowsMatchesBuilder) is identity with the
// reference builder, FreezeBipartite over a graph built edge by edge the
// way core.BuildInvestorGraph does:
//
//   - a left node exists only if its row has at least one edge, in row
//     order (the builder creates left nodes lazily on the first AddEdge);
//   - right nodes are numbered by first appearance in raw traversal
//     order, which is why Rights must be each row's original list;
//   - forward rows are deduplicated and sorted ascending (AddEdge's seen
//     set plus SortAdjacency);
//   - reverse rows come out ascending by construction, matching the
//     sorted rows of the builder.
//
// Non-empty rows whose left labels are not strictly ascending — a
// duplicate left node included — are an error.
func FromRows(rows []AdjacencyRow) (*FrozenBipartite, error) {
	raw := 0
	for _, r := range rows {
		raw += len(r.Rights)
	}
	leftLabels := make([]string, 0, len(rows))
	rightLabels := []string{}
	rightIdx := make(map[string]int32, len(rows))
	fwd := &csr{offsets: make([]int64, 1, len(rows)+1), targets: make([]int32, 0, raw)}
	for _, r := range rows {
		if len(r.Rights) == 0 {
			continue
		}
		if n := len(leftLabels); n > 0 && r.Left <= leftLabels[n-1] {
			return nil, fmt.Errorf("graph: left node %q follows %q: rows not strictly ascending", r.Left, leftLabels[n-1])
		}
		start := len(fwd.targets)
		for _, label := range r.Rights {
			v, ok := rightIdx[label]
			if !ok {
				v = int32(len(rightLabels))
				rightIdx[label] = v
				rightLabels = append(rightLabels, label)
			}
			fwd.targets = append(fwd.targets, v)
		}
		row := fwd.targets[start:]
		slices.Sort(row)
		fwd.targets = fwd.targets[:start+len(slices.Compact(row))]
		fwd.offsets = append(fwd.offsets, int64(len(fwd.targets)))
		leftLabels = append(leftLabels, r.Left)
	}

	// Reverse CSR by counting sort. Rows fill in ascending left order, so
	// every reverse row comes out already sorted — exactly what
	// SortAdjacency produces on the builder (each (u,v) pair is unique
	// after the dedup above).
	rev := &csr{offsets: make([]int64, len(rightLabels)+1), targets: make([]int32, len(fwd.targets))}
	for _, v := range fwd.targets {
		rev.offsets[v+1]++
	}
	for i := 1; i < len(rev.offsets); i++ {
		rev.offsets[i] += rev.offsets[i-1]
	}
	next := slices.Clone(rev.offsets[:len(rightLabels)])
	for u := range leftLabels {
		for _, v := range fwd.row(int32(u)) {
			rev.targets[next[v]] = int32(u)
			next[v]++
		}
	}
	return newFrozenBipartite(leftLabels, rightLabels, fwd, rev), nil
}

// NumLeft returns the number of left (investor) nodes.
func (f *FrozenBipartite) NumLeft() int { return len(f.leftLabels) }

// NumRight returns the number of right (company) nodes.
func (f *FrozenBipartite) NumRight() int { return len(f.rightLabels) }

// NumEdges returns the number of edges.
func (f *FrozenBipartite) NumEdges() int { return len(f.fwd.targets) }

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
func csrRowsSorted(c *csr) bool {
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
