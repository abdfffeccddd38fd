// Package store is crowdscope's substitute for the paper's HDFS layer: a
// durable, append-only, scan-oriented JSON record store.
//
// Records are grouped into namespaces (one per crawled source, e.g.
// "angellist/startups" or "twitter/profiles"). Each namespace is K shards
// (K=1 when unsharded), and each shard a series of immutable segment
// files; a writer appends length-prefixed, CRC32-checksummed JSON records
// to a shard's active segment and seals it on rotation or close. The set
// of sealed segments is recorded in a manifest committed by atomic
// rename, so readers always observe a consistent snapshot: a record is
// visible if and only if its segment was sealed and the manifest commit
// succeeded.
//
// The design mirrors what the analyses need from HDFS — high-throughput
// sequential writes from parallel crawlers and full-namespace or
// shard-at-a-time scans from the loaders — while adding the integrity
// checking (per-record CRCs, manifest accounting) a production store
// requires.
package store
