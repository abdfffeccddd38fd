package graph

// CSR is a flattened compressed-sparse-row adjacency view: the neighbors
// of node u occupy Targets[Offsets[u]:Offsets[u+1]]. Row order preserves
// the graph's adjacency-list order, so algorithms that switch from
// [][]int32 traversal to CSR traversal visit neighbors in exactly the
// same sequence — only the memory layout changes (one contiguous array
// instead of n separately allocated slices), which is also the layout a
// snapshot persists and loads without a rebuild.
type CSR struct {
	Offsets []int64
	Targets []int32
}

// row returns node u's neighbor slice. The slice aliases the CSR's
// backing array and must not be modified.
func (c *CSR) row(u int32) []int32 { return c.Targets[c.Offsets[u]:c.Offsets[u+1]] }

// degree returns the length of node u's row.
func (c *CSR) degree(u int32) int { return int(c.Offsets[u+1] - c.Offsets[u]) }

// numNodes returns the number of rows.
func (c *CSR) numNodes() int { return len(c.Offsets) - 1 }

func buildCSR(adj [][]int32, edges int) *CSR {
	c := &CSR{
		Offsets: make([]int64, len(adj)+1),
		Targets: make([]int32, 0, edges),
	}
	for i, row := range adj {
		c.Offsets[i] = int64(len(c.Targets))
		c.Targets = append(c.Targets, row...)
	}
	c.Offsets[len(adj)] = int64(len(c.Targets))
	return c
}
