package crawler

import (
	"bytes"
	"context"
	"fmt"

	"crowdscope/internal/ecosystem"
	pool "crowdscope/internal/parallel"
	"crowdscope/internal/store"
)

// ingestPairs maps each generated namespace to its crawl counterpart,
// in the order IngestGenerated commits them.
var ingestPairs = [][2]string{
	{ecosystem.NSGenStartups, NSStartups},
	{ecosystem.NSGenUsers, NSUsers},
	{ecosystem.NSGenCrunchBase, NSCrunchBase},
	{ecosystem.NSGenFacebook, NSFacebook},
	{ecosystem.NSGenTwitter, NSTwitter},
}

// IngestGenerated promotes a streamed generated world — the gen/*
// namespaces ecosystem.GenerateTo commits — into the standard crawl
// namespaces, tagging every record with the snapshot number. It is the
// collection stage at scales where driving the HTTP crawler is
// infeasible (the paper-scale pipeline); the record schema it writes is
// exactly what Persist writes after a real crawl, so every downstream
// stage is oblivious to which path produced the data.
//
// A crawl record is its generated record plus a trailing snapshot field
// (StartupRecord and UserRecord embed the entity, AugmentRecord is
// GenAugment and the tag), so the copy is a byte splice: each payload's
// closing brace becomes `,"snapshot":N}` and nothing is decoded. A
// payload that is not a non-empty JSON object fails the ingest; any
// other malformation is left to the freeze, whose decode rejects it.
//
// Each record goes to the shard it was read from, so a crawl namespace
// inherits its source's shard count and key (startups and users shard
// by their own ID, augmentation profiles by the owning startup ID) and a
// shard-at-a-time freeze never needs records from two shards at once.
// Peak memory is O(1) in world size.
//
// Returns the total number of records ingested. The context bounds the
// durable writes; a namespace commits whole or, on any error, not at all.
func IngestGenerated(ctx context.Context, s *store.Store, snapshotNum int) (int64, error) {
	tag := fmt.Appendf(nil, `,"snapshot":%d}`, snapshotNum)
	var total int64
	for _, p := range ingestPairs {
		n, err := ingestNS(ctx, s, p[0], p[1], tag)
		if err != nil {
			return total, fmt.Errorf("crawler: ingest %s into %s: %w", p[0], p[1], err)
		}
		total += n
	}
	return total, nil
}

// ingestNS streams one generated namespace into its crawl counterpart,
// preserving the shard count and per-shard record order. The shards copy
// concurrently on parallel.Default(), each by its own goroutine into its
// own shard of one Writer, which the Writer allows.
func ingestNS(ctx context.Context, s *store.Store, from, to string, tag []byte) (int64, error) {
	k, err := s.ShardCount(from)
	if err != nil {
		return 0, err
	}
	w, err := s.Writer(to, k)
	if err != nil {
		return 0, err
	}
	defer w.Abort() // a no-op once Close has committed
	counts := make([]int64, k)
	err = pool.Default().EachErr(k, func(shard int) error {
		var buf []byte
		return s.ScanShardContext(ctx, from, shard, func(payload []byte) error {
			// Only braces around at least one member take the tag.
			end := len(payload) - 1
			if end < 1 || payload[0] != '{' || payload[end] != '}' ||
				!bytes.HasPrefix(bytes.TrimLeft(payload[1:end], " \t\r\n"), []byte(`"`)) {
				return fmt.Errorf("shard %d, after %d records: payload is not a non-empty JSON object: %.40q", shard, counts[shard], payload)
			}
			buf = append(append(buf[:0], payload[:end]...), tag...)
			counts[shard]++
			return w.AppendRawTo(shard, buf)
		})
	})
	if err != nil {
		return 0, err
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	return n, w.Close()
}
