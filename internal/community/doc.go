// Package community implements the community-detection algorithms the
// paper uses and proposes:
//
//   - CoDA (Communities through Directed Affiliations, Yang–McAuley–
//     Leskovec, WSDM'14), the method the paper runs via SNAP. CoDA fits an
//     affiliation model where every investor has an outgoing-membership
//     vector F and every company an incoming-membership vector H, with
//     edge probability 1 − exp(−F_u·H_v); communities are the nodes whose
//     membership weight clears the background threshold. It handles
//     directed 2-mode (bipartite) networks natively, which is why the
//     paper selected it.
//   - BigCLAM, the undirected ancestor, run on the one-mode projection —
//     a baseline showing what is lost by projecting away the bipartite
//     structure.
//   - Weighted label propagation and Louvain modularity maximization on
//     the projection, the "standard algorithms for densely connected
//     undirected graphs" the paper contrasts CoDA against.
//   - A degree-corrected stochastic block model with spectral
//     initialization and greedy likelihood refinement — the Section 7
//     future-work method, run on the weighted projection.
//
// All algorithms take a *graph.FrozenBipartite and return Assignment values.
// The four baselines read the rows of one graph.Projection (ProjectLeft);
// Louvain's aggregated levels are Projections too. Every stochastic step
// takes an explicit seed, and no result depends on map iteration order,
// so each detector returns one answer per seed.
package community
