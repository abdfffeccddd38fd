// Package fleet coordinates N crawler workers over one store so a crawl
// of the paper's live social APIs survives the loss of any worker
// mid-run — the multi-agent collection problem Catanese et al. describe
// for Facebook-scale BFS crawls — while keeping the merged result
// analysis-grade: bit-identical to what one uninterrupted worker would
// have collected.
//
// The moving parts:
//
//   - The seed listing is split into deterministic partitions
//     (PartitionSeeds); each partition is one claimable unit of work.
//   - Workers claim partitions through lease records persisted in the
//     store's fleet/leases namespace (Leases). Every acquisition mints a
//     strictly increasing fencing token; expiry comes from an injected
//     Clock, so tests replay reclaim schedules deterministically.
//   - A claimed partition is crawled with the existing crawler in worker
//     mode (Crawler.Seeds), checkpointing into the partition's own
//     namespace with the lease token as the checkpoint fence. The
//     checkpoint guard renews the lease on every write, so a fenced-out
//     worker aborts at its next persist and a crashed worker's lease
//     simply expires.
//   - MergePartitions reconciles the completed partials into one
//     snapshot — ID-sorted union, conflicts resolved last-fenced-writer-
//     wins — and CommitMerged persists and freezes it through the
//     standard pipeline, yielding frozen artifacts byte-identical to a
//     single-worker crawl of the same seed.
//
// The read side lives in the front subpackage: a round-robin,
// health-checked front over M read-only internal/serve replicas.
package fleet
