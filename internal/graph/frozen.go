package graph

import (
	"fmt"
	"slices"
	"sync"
)

// FrozenBipartite is the bipartite graph every analysis reads: a directed
// two-mode graph from "left" nodes to "right" nodes — in the paper,
// investment edges from investors to the companies they invested in
// (Section 5.1). It is backed by flat arrays: left and right label tables
// plus fwd (left→right) and rev (right→left) CSR adjacency, every row
// ascending and free of duplicates. The left label→index map is built
// lazily on first lookup. Immutable and safe for concurrent use.
type FrozenBipartite struct {
	leftLabels  []string
	rightLabels []string
	fwd         *csr
	rev         *csr

	leftOnce sync.Once
	leftIdx  map[string]int32
}

// FromIndexRows builds a FrozenBipartite from index rows: left node u
// is labelled leftLabels[u] and rows[u] lists the indices into
// rightLabels it links to, in any order and with repeats. Every node
// keeps its index, a left node with an empty row included. The label
// tables are adopted, not copied; rows is only read. len(rows) must equal
// len(leftLabels).
func FromIndexRows(leftLabels, rightLabels []string, rows [][]int32) *FrozenBipartite {
	if len(rows) != len(leftLabels) {
		panic(fmt.Sprintf("graph: %d rows for %d left labels", len(rows), len(leftLabels)))
	}
	fwd := &csr{offsets: make([]int64, len(rows)+1)}
	for u, r := range rows {
		fwd.targets = append(fwd.targets, r...)
		fwd.offsets[u+1] = int64(len(fwd.targets))
	}
	return fromCSR(leftLabels, rightLabels, fwd)
}

// fromCSR is the one constructor every FrozenBipartite ends in:
// FromIndexRows, FromRows and the row-selecting filters. It adopts fwd's
// rows, deduplicating and sorting each in place, and fills the reverse
// rows by a counting transpose in ascending left order, so they come out
// ascending too.
func fromCSR(leftLabels, rightLabels []string, fwd *csr) *FrozenBipartite {
	// Row u is compacted to targets[w:], which never passes the start of
	// row u+1, and offsets[u] is rewritten only after row u is read.
	w := int64(0)
	for u := range leftLabels {
		row := fwd.targets[fwd.offsets[u]:fwd.offsets[u+1]]
		slices.Sort(row)
		fwd.offsets[u] = w
		w += int64(copy(fwd.targets[w:], slices.Compact(row)))
	}
	fwd.offsets[len(leftLabels)] = w
	fwd.targets = fwd.targets[:w]

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
	return &FrozenBipartite{leftLabels: leftLabels, rightLabels: rightLabels, fwd: fwd, rev: rev}
}

// AdjacencyRow is one left node's raw edge list by label, in original
// (load-bearing) order: for the investment graph, an investor and the
// company IDs it reports, duplicates and all.
type AdjacencyRow struct {
	Left   string
	Rights []string
}

// FromRows builds every frozen snapshot's graph: it turns adjacency rows
// sorted by left label — a freeze's freshly loaded rows, a decoded
// artifact's rows, or a previous snapshot's retained rows plus a delta's
// upserted ones — into the CSR.
//
// Its contract (TestFromRowsMatchesBuilder) is identity with the
// reference label-keyed builder the tests keep, fed the rows edge by
// edge:
//
//   - a left node exists only if its row has at least one edge, in row
//     order;
//   - right nodes are numbered by first appearance in raw traversal
//     order, which is why Rights must be each row's original list;
//   - rows are deduplicated and ascending, as every FrozenBipartite's.
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
		for _, label := range r.Rights {
			v, ok := rightIdx[label]
			if !ok {
				v = int32(len(rightLabels))
				rightIdx[label] = v
				rightLabels = append(rightLabels, label)
			}
			fwd.targets = append(fwd.targets, v)
		}
		fwd.offsets = append(fwd.offsets, int64(len(fwd.targets)))
		leftLabels = append(leftLabels, r.Left)
	}
	return fromCSR(leftLabels, rightLabels, fwd), nil
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

// Fwd returns the right-neighbors of left node idx (the companies an
// investor invested in), ascending. The slice aliases the graph's arrays
// and must not be modified.
func (f *FrozenBipartite) Fwd(idx int32) []int32 { return f.fwd.row(idx) }

// Rev returns the left-neighbors of right node idx (the investors of a
// company), ascending. The slice aliases the graph's arrays and must not
// be modified.
func (f *FrozenBipartite) Rev(idx int32) []int32 { return f.rev.row(idx) }

// OutDegree returns the out-degree of a left node — the paper's "number
// of companies invested".
func (f *FrozenBipartite) OutDegree(idx int32) int { return f.fwd.degree(idx) }

// InDegree returns the in-degree of a right node — the paper's "number of
// investors of a company".
func (f *FrozenBipartite) InDegree(idx int32) int { return f.rev.degree(idx) }

// SortAdjacency does nothing: every row is ascending from construction.
// Only benchmark/batch.go still calls it, and it goes once that file is
// rebaselined (ROADMAP 1(c)).
func (f *FrozenBipartite) SortAdjacency() {}
