// Package stats provides the statistical primitives used throughout the
// crowdscope analyses: empirical CDFs with Glivenko–Cantelli / DKW
// confidence bands (Figure 4 of the paper), kernel density estimates of
// PDFs (Figure 5), means, medians and percentiles, correlation and
// contingency tests, bootstrap and pair sampling, and the heavy-tailed
// samplers that drive the synthetic-ecosystem generator.
//
// All estimators are deterministic given their inputs; every sampler takes
// an explicit *rand.Rand so experiments are reproducible.
package stats
