// Package graph provides the graph substrate for the crowdscope analyses:
// the bipartite investor→company graph of Section 5.1 of the paper, as a
// mutable builder (Bipartite) and as the immutable CSR form a frozen
// snapshot loads (FrozenBipartite), both read through BipartiteView; the
// degree filter and per-investor degree cap applied before community
// detection; degree-concentration statistics; and the one-mode investor
// projection, a symmetric weighted CSR (Projection).
//
// Nodes are referenced externally by string labels (AngelList IDs in the
// analyses) and internally by dense integer indices so adjacency is stored
// in compact slices.
package graph
