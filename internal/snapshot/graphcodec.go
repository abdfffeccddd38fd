package snapshot

import (
	"fmt"

	"crowdscope/internal/graph"
)

// Graph sections: a bipartite view persists under prefix p as
//
//	p.left, p.right            string tables (node labels)
//	p.fwd.offsets, p.fwd.targets   left→right CSR
//	p.rev.offsets, p.rev.targets   right→left CSR
//
// Decoding hands the loaded arrays straight to graph.NewFrozenBipartite —
// no adjacency rebuild, no sorting, no hashing.

// EncodeBipartite adds the view's label tables and CSR adjacency under
// the given section prefix. Row order is preserved exactly, so analyses
// on the decoded graph are bit-identical to the original.
func EncodeBipartite(e *Encoder, prefix string, v graph.BipartiteView) {
	left := make([]string, v.NumLeft())
	for i := range left {
		left[i] = v.LeftLabel(int32(i))
	}
	right := make([]string, v.NumRight())
	for i := range right {
		right[i] = v.RightLabel(int32(i))
	}
	e.Strings(prefix+".left", left)
	e.Strings(prefix+".right", right)
	fwdOff, fwdTgt := flattenRows(v.NumLeft(), v.Fwd)
	revOff, revTgt := flattenRows(v.NumRight(), v.Rev)
	e.Int64s(prefix+".fwd.offsets", fwdOff)
	e.Int32s(prefix+".fwd.targets", fwdTgt)
	e.Int64s(prefix+".rev.offsets", revOff)
	e.Int32s(prefix+".rev.targets", revTgt)
}

// DecodeBipartite loads the prefix's sections into a FrozenBipartite.
func DecodeBipartite(d *Decoder, prefix string) (*graph.FrozenBipartite, error) {
	left, err := d.Strings(prefix + ".left")
	if err != nil {
		return nil, err
	}
	right, err := d.Strings(prefix + ".right")
	if err != nil {
		return nil, err
	}
	fwd, err := decodeCSR(d, prefix+".fwd", len(left), len(right))
	if err != nil {
		return nil, err
	}
	rev, err := decodeCSR(d, prefix+".rev", len(right), len(left))
	if err != nil {
		return nil, err
	}
	fb, err := graph.NewFrozenBipartite(left, right, fwd, rev)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, prefix, err)
	}
	return fb, nil
}

// flattenRows packs n adjacency rows into CSR offset/target arrays.
func flattenRows(n int, row func(int32) []int32) ([]int64, []int32) {
	offsets := make([]int64, n+1)
	var total int
	for i := 0; i < n; i++ {
		total += len(row(int32(i)))
	}
	targets := make([]int32, 0, total)
	for i := 0; i < n; i++ {
		offsets[i] = int64(len(targets))
		targets = append(targets, row(int32(i))...)
	}
	offsets[n] = int64(len(targets))
	return offsets, targets
}

// decodeCSR loads and validates one offset/target pair. nRows is the
// expected row count and nCols the valid target range.
func decodeCSR(d *Decoder, prefix string, nRows, nCols int) (*graph.CSR, error) {
	offsets, err := d.Int64s(prefix + ".offsets")
	if err != nil {
		return nil, err
	}
	targets, err := d.Int32s(prefix + ".targets")
	if err != nil {
		return nil, err
	}
	if len(offsets) != nRows+1 {
		return nil, fmt.Errorf("%w: %s: %d offsets for %d rows", ErrCorrupt, prefix, len(offsets), nRows)
	}
	if offsets[0] != 0 || offsets[nRows] != int64(len(targets)) {
		return nil, fmt.Errorf("%w: %s: offset bounds [%d,%d] disagree with %d targets",
			ErrCorrupt, prefix, offsets[0], offsets[nRows], len(targets))
	}
	for i := 0; i < nRows; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("%w: %s: offsets decrease at row %d", ErrCorrupt, prefix, i)
		}
	}
	for _, t := range targets {
		if t < 0 || int(t) >= nCols {
			return nil, fmt.Errorf("%w: %s: target %d outside [0,%d)", ErrCorrupt, prefix, t, nCols)
		}
	}
	return &graph.CSR{Offsets: offsets, Targets: targets}, nil
}
