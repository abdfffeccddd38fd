package graph

import "slices"

// Projection is a symmetric weighted graph in CSR form, the one
// representation of every one-mode graph the community baselines
// cluster: node u's neighbours are ascending in Row(u), each beside the
// weight of its edge. It has no self-loops.
type Projection struct {
	csr
	weights []float64
}

// NumEdges returns the number of undirected edges.
func (p *Projection) NumEdges() int { return len(p.targets) / 2 }

// Degree returns the number of node u's neighbours.
func (p *Projection) Degree(u int32) int { return p.degree(u) }

// Row returns node u's neighbours, ascending, and the weight of the edge
// to each. Both slices alias the projection and must not be modified.
func (p *Projection) Row(u int32) ([]int32, []float64) {
	lo, hi := p.offsets[u], p.offsets[u+1]
	return p.targets[lo:hi], p.weights[lo:hi]
}

// ProjectLeft builds the one-mode projection of the bipartite graph onto
// its left nodes: investors are linked when they co-invested in at least
// minShared companies (minShared < 1 counts as 1), weighted by the number
// of companies they share. BigCLAM, the SBM, label propagation and
// Louvain all cluster this graph.
//
// It costs Σ deg² over the right nodes: each investor's row is counted in
// a dense shared-company counter, with no hash map and no edge sort.
func ProjectLeft(b *FrozenBipartite, minShared int) *Projection {
	return accumulate(b.NumLeft(), float64(max(minShared, 1)), func(u int32, add func(int32, float64)) {
		for _, c := range b.Fwd(u) {
			for _, v := range b.Rev(c) {
				if v != u {
					add(v, 1)
				}
			}
		}
	})
}

// Collapse merges each group of nodes into one node; group[u] in [0, k)
// names node u's group. Two groups are linked by the summed weight of the
// edges between their members, and loops[g] is the summed weight of the
// edges inside group g.
func (p *Projection) Collapse(group []int, k int) (q *Projection, loops []float64) {
	members := make([][]int32, k)
	for u, g := range group {
		members[g] = append(members[g], int32(u))
	}
	loops = make([]float64, k)
	q = accumulate(k, 0, func(g int32, add func(int32, float64)) {
		for _, u := range members[g] {
			nbrs, ws := p.Row(u)
			for i, v := range nbrs {
				if h := int32(group[v]); h != g {
					add(h, ws[i])
				} else {
					loops[g] += ws[i] / 2 // each inside edge is in two rows
				}
			}
		}
	})
	return q, loops
}

// accumulate builds a symmetric Projection over n nodes one row at a
// time. fill(u, add) reports node u's edges, calling add(v, w) with w > 0
// for each contribution; a dense counter sums them per neighbour, and the
// neighbours whose sum reaches minWeight form u's row, in first-touch
// order. A counting transpose then reads the rows in ascending order, so
// every row comes out ascending; the graph is symmetric, so its transpose
// is itself and keeps its offsets.
func accumulate(n int, minWeight float64, fill func(u int32, add func(v int32, w float64))) *Projection {
	raw := &Projection{csr: csr{offsets: make([]int64, n+1)}}
	sum := make([]float64, n)
	var touched []int32
	add := func(v int32, w float64) {
		if sum[v] == 0 {
			touched = append(touched, v)
		}
		sum[v] += w
	}
	for u := range n {
		touched = touched[:0]
		fill(int32(u), add)
		for _, v := range touched {
			if sum[v] >= minWeight {
				raw.targets = append(raw.targets, v)
				raw.weights = append(raw.weights, sum[v])
			}
			sum[v] = 0
		}
		raw.offsets[u+1] = int64(len(raw.targets))
	}

	p := &Projection{
		csr:     csr{offsets: raw.offsets, targets: make([]int32, len(raw.targets))},
		weights: make([]float64, len(raw.weights)),
	}
	next := slices.Clone(p.offsets[:n])
	for u := range n {
		nbrs, ws := raw.Row(int32(u))
		for i, v := range nbrs {
			p.targets[next[v]], p.weights[next[v]] = int32(u), ws[i]
			next[v]++
		}
	}
	return p
}

// SharedRightCount returns |Fwd(a) ∩ Fwd(c)| — the paper's "shared
// investment size" between two investors: one linear merge of their
// rows, which are always ascending.
func SharedRightCount(b *FrozenBipartite, a, c int32) int {
	return sortedIntersectLen(b.Fwd(a), b.Fwd(c))
}

// sortedIntersectLen returns the intersection size of two ascending-sorted
// slices.
func sortedIntersectLen(x, y []int32) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			n++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return n
}
