// Package core implements the paper's analyses — the layer that sits on
// top of the crawler's store exactly where the paper puts Spark on top of
// HDFS:
//
//   - Merging the AngelList snapshot with the CrunchBase, Facebook and
//     Twitter augmentations into one company dataset (Section 3), via the
//     shard-at-a-time store loader (a shard holds a startup and all its
//     profiles, so the join is a per-shard lookup).
//   - The social-engagement success table of Figure 6 (Section 4).
//   - The investor→company bipartite graph extraction and degree-share
//     statistics of Section 5.1.
//   - Experiment drivers that regenerate every figure and table:
//     Figure 3 (investment CDF), Figure 4 (shared-investment-size CDFs),
//     Figure 5 (community percentage PDF), Figure 6 (engagement table),
//     Figure 7 (community visualizations), plus the dataset summary,
//     detector comparison and longitudinal extensions.
//
// Each experiment returns a typed result that crowdscope analyze formats
// and the benchmark suite regenerates.
package core
