package snapshot

import (
	"fmt"
	"sort"

	"crowdscope/internal/graph"
)

// Delta artifacts reuse the CSFROZ01 container: a delta blob is a normal
// section file whose sections carry the entities that changed between
// two consecutive frozen snapshots plus tombstones for the ones that
// disappeared. The blob is tagged DeltaFormatVersion in the store
// manifest, so a frozen-snapshot reader can never mistake one for a full
// artifact (and vice versa).
//
// The section-level layout lives with the writers in internal/core
// (delta.co.*, delta.inv.*, delta.drop.*); this file owns the pieces
// that are generic over the entity schema: the base/target metadata
// framing and the CSR apply kernel that rebuilds the bipartite
// investment graph for the post-apply snapshot.

// DeltaFormatVersion is the current delta-artifact format, recorded in
// the store manifest next to the blob checksum (the container header
// still carries FormatVersion — the section framing is shared).
const DeltaFormatVersion = 1

// Delta metadata section names.
const (
	secDeltaBase   = "delta.base"
	secDeltaTarget = "delta.target"
)

// EncodeDeltaMeta adds the base→target metadata sections of a delta
// artifact: the snapshot the delta applies on top of and the snapshot it
// produces.
func EncodeDeltaMeta(e *Encoder, base, target int64) {
	e.Int64s(secDeltaBase, []int64{base})
	e.Int64s(secDeltaTarget, []int64{target})
}

// DecodeDeltaMeta reads the base/target metadata written by
// EncodeDeltaMeta, validating the single-value framing and that the
// delta advances exactly one snapshot (the only shape the writer emits —
// anything else is a corrupt or foreign artifact).
func DecodeDeltaMeta(d *Decoder) (base, target int64, err error) {
	bases, err := d.Int64s(secDeltaBase)
	if err != nil {
		return 0, 0, err
	}
	targets, err := d.Int64s(secDeltaTarget)
	if err != nil {
		return 0, 0, err
	}
	if len(bases) != 1 || len(targets) != 1 {
		return 0, 0, fmt.Errorf("%w: delta meta holds %d base / %d target values",
			ErrCorrupt, len(bases), len(targets))
	}
	if targets[0] != bases[0]+1 || bases[0] < 0 {
		return 0, 0, fmt.Errorf("%w: delta claims base %d target %d (must advance exactly one snapshot)",
			ErrCorrupt, bases[0], targets[0])
	}
	return bases[0], targets[0], nil
}

// AdjacencyRow is one left node's raw edge list by label, in original
// (load-bearing) order: for the investment graph, an investor and the
// company IDs it reports, duplicates and all.
type AdjacencyRow struct {
	Left   string
	Rights []string
}

// ApplyBipartite is the CSR kernel every frozen snapshot's graph is
// built by: it turns ID-sorted adjacency rows — a freeze's freshly
// loaded rows, or a previous snapshot's retained edge lists (which alias
// the old artifact's columns, so nothing is re-read) plus a delta's
// upserted ones — into the frozen CSR, without the intermediate builder
// graph or its per-edge hash set.
//
// Its contract (TestApplyBipartiteMatchesBuilder) is byte identity with
// the reference builder, graph.FreezeBipartite over a graph built edge
// by edge the way core.BuildInvestorGraph does:
//
//   - a left node exists only if its row has at least one edge, in row
//     order (the builder creates left nodes lazily on the first AddEdge);
//   - right nodes are numbered by first appearance in raw traversal
//     order, which is why Rights must be each row's original list;
//   - forward rows are deduplicated and sorted ascending (AddEdge's seen
//     set plus SortAdjacency);
//   - reverse rows come out ascending by construction, matching the
//     sorted rows of the builder.
func ApplyBipartite(rows []AdjacencyRow) (*graph.FrozenBipartite, error) {
	leftLabels := make([]string, 0, len(rows))
	var rightLabels []string
	rightIdx := make(map[string]int32, len(rows))
	seenLeft := make(map[string]bool, len(rows))
	adjRows := make([][]int32, 0, len(rows))
	edges := 0
	for _, r := range rows {
		if len(r.Rights) == 0 {
			continue
		}
		if seenLeft[r.Left] {
			return nil, fmt.Errorf("snapshot: apply bipartite: duplicate left node %q", r.Left)
		}
		seenLeft[r.Left] = true
		adj := make([]int32, 0, len(r.Rights))
		for _, label := range r.Rights {
			v, ok := rightIdx[label]
			if !ok {
				v = int32(len(rightLabels))
				rightIdx[label] = v
				rightLabels = append(rightLabels, label)
			}
			adj = append(adj, v)
		}
		sort.Slice(adj, func(a, b int) bool { return adj[a] < adj[b] })
		w := 1
		for i := 1; i < len(adj); i++ {
			if adj[i] != adj[i-1] {
				adj[w] = adj[i]
				w++
			}
		}
		adj = adj[:w]
		leftLabels = append(leftLabels, r.Left)
		adjRows = append(adjRows, adj)
		edges += len(adj)
	}

	fwd := &graph.CSR{
		Offsets: make([]int64, len(adjRows)+1),
		Targets: make([]int32, 0, edges),
	}
	for i, adj := range adjRows {
		fwd.Offsets[i] = int64(len(fwd.Targets))
		fwd.Targets = append(fwd.Targets, adj...)
	}
	fwd.Offsets[len(adjRows)] = int64(len(fwd.Targets))

	// Reverse CSR by counting sort. Rows fill in ascending left order, so
	// every reverse row comes out already sorted — exactly what
	// SortAdjacency produces on the builder (each (u,v) pair is unique
	// after the dedup above).
	revOff := make([]int64, len(rightLabels)+1)
	for _, v := range fwd.Targets {
		revOff[v+1]++
	}
	for i := 1; i < len(revOff); i++ {
		revOff[i] += revOff[i-1]
	}
	revTgt := make([]int32, edges)
	next := make([]int64, len(rightLabels))
	copy(next, revOff[:len(rightLabels)])
	for u, adj := range adjRows {
		for _, v := range adj {
			revTgt[next[v]] = int32(u)
			next[v]++
		}
	}
	rev := &graph.CSR{Offsets: revOff, Targets: revTgt}
	return graph.NewFrozenBipartite(leftLabels, rightLabels, fwd, rev)
}
