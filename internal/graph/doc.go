// Package graph provides the graph substrate for the crowdscope analyses:
// the bipartite investor→company graph of Section 5.1 of the paper as
// one immutable CSR type (FrozenBipartite), built from index rows by one
// constructor that FromIndexRows, FromRows, the degree filter and the
// per-investor degree cap applied before community detection all end in;
// degree-concentration statistics; and the one-mode investor projection,
// a symmetric weighted CSR (Projection).
//
// Nodes are referenced externally by string labels (AngelList IDs in the
// analyses) and internally by dense integer indices so adjacency is stored
// in compact slices.
package graph
