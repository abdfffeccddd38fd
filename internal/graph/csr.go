package graph

// csr is a flattened compressed-sparse-row adjacency: the neighbors of
// node u occupy targets[offsets[u]:offsets[u+1]], in one contiguous array
// instead of n separately allocated slices. It backs both directions of
// a FrozenBipartite and, with a parallel weight slice, a Projection.
type csr struct {
	offsets []int64
	targets []int32
}

// row returns node u's neighbor slice. The slice aliases the CSR's
// backing array and must not be modified.
func (c *csr) row(u int32) []int32 { return c.targets[c.offsets[u]:c.offsets[u+1]] }

// degree returns the length of node u's row.
func (c *csr) degree(u int32) int { return int(c.offsets[u+1] - c.offsets[u]) }
