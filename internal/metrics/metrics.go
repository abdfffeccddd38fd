// Package metrics implements the paper's Section 5.3 community-strength
// metrics over the bipartite investor→company graph:
//
//   - Shared investment size: for two investors with company sets C1, C2,
//     the intersection size |C1 ∩ C2|; a community's strength is the
//     average over all member pairs (Figure 4 compares per-community CDFs
//     of this quantity against an 800,000-pair global sample).
//   - Shared-investor company percentage: within a community, the share
//     of invested companies that at least K community members co-invested
//     in (Figure 5 plots the distribution of this percentage over the 96
//     communities for K = 2, against a randomized-community baseline).
package metrics

import (
	"fmt"
	"math/rand"
	"sort"

	"crowdscope/internal/graph"
	"crowdscope/internal/parallel"
	"crowdscope/internal/stats"
)

// SharedSizes returns the shared investment size of every unordered pair
// of the given investors (left indices). The result has n(n-1)/2
// entries.
func SharedSizes(b *graph.FrozenBipartite, investors []int32) []float64 {
	var out []float64
	for i := 0; i < len(investors); i++ {
		for j := i + 1; j < len(investors); j++ {
			out = append(out, float64(graph.SharedRightCount(b, investors[i], investors[j])))
		}
	}
	return out
}

// AvgSharedSize is the community-strength score: the mean pairwise shared
// investment size (the paper's strongest community scores 2.1, its weak
// example 0.018). Communities with fewer than two members score 0.
func AvgSharedSize(b *graph.FrozenBipartite, investors []int32) float64 {
	if len(investors) < 2 {
		return 0
	}
	var sum float64
	var pairs int
	for i := 0; i < len(investors); i++ {
		for j := i + 1; j < len(investors); j++ {
			sum += float64(graph.SharedRightCount(b, investors[i], investors[j]))
			pairs++
		}
	}
	return sum / float64(pairs)
}

// SharedCompanyPct returns the percentage (0-100) of companies invested
// in by the community that have at least k community investors — the
// paper's second metric. In Figure 8a, K=2 gives 100%; in Figure 8b, 25%.
func SharedCompanyPct(b *graph.FrozenBipartite, investors []int32, k int) float64 {
	counts := map[int32]int{}
	for _, u := range investors {
		for _, v := range b.Fwd(u) {
			counts[v]++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	shared := 0
	for _, c := range counts {
		if c >= k {
			shared++
		}
	}
	return float64(shared) / float64(len(counts)) * 100
}

// GlobalPairSampleParallel draws n i.i.d. investor pairs uniformly from
// the whole graph and returns their shared investment sizes — the
// estimated global CDF of Figure 4 (the paper samples 800,000 pairs and
// invokes Glivenko–Cantelli/DKW for the 0.0196 accuracy band). Pairs
// come from the counter-based stream identified by seed: sample k is a
// pure function of (seed, k), so workers fill disjoint slices of the
// output and the result — including its order — is identical for every
// worker count.
func GlobalPairSampleParallel(b *graph.FrozenBipartite, n int, seed int64, workers int) ([]float64, error) {
	if b.NumLeft() < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 investors, have %d", b.NumLeft())
	}
	pop := b.NumLeft()
	out := make([]float64, n)
	pool := parallel.New(workers)
	nChunks := (n + pairChunk - 1) / pairChunk
	pool.Each(nChunks, func(c int) {
		lo := c * pairChunk
		hi := lo + pairChunk
		if hi > n {
			hi = n
		}
		for k := lo; k < hi; k++ {
			i, j := stats.PairAt(seed, k, pop)
			out[k] = float64(graph.SharedRightCount(b, int32(i), int32(j)))
		}
	})
	return out, nil
}

// pairChunk is the fixed pair-stream range size the parallel sampler
// partitions over; boundaries do not depend on the worker count.
const pairChunk = 4096

// RandomizedPctBaseline builds random investor groups matching the given
// sizes and returns the mean SharedCompanyPct across them — the paper's
// randomized-community comparison (5.8% vs 23.1% for real communities).
func RandomizedPctBaseline(b *graph.FrozenBipartite, sizes []int, k int, rng *rand.Rand) float64 {
	if len(sizes) == 0 || b.NumLeft() == 0 {
		return 0
	}
	var sum float64
	for _, size := range sizes {
		if size > b.NumLeft() {
			size = b.NumLeft()
		}
		idxs := stats.ReservoirSample(rng, b.NumLeft(), size)
		members := make([]int32, len(idxs))
		for i, v := range idxs {
			members[i] = int32(v)
		}
		sum += SharedCompanyPct(b, members, k)
	}
	return sum / float64(len(sizes))
}

// CommunityScore pairs a community index with its strength metrics.
type CommunityScore struct {
	Index       int
	Size        int
	AvgShared   float64
	SharedPctK2 float64
}

// RankCommunities scores every community by average shared investment
// size (descending), attaching the K=2 shared-company percentage. Used to
// pick the "strong" and "weak" communities of Figure 7.
func RankCommunities(b *graph.FrozenBipartite, communities [][]int32) []CommunityScore {
	scores := make([]CommunityScore, len(communities))
	for i, members := range communities {
		scores[i] = CommunityScore{
			Index:       i,
			Size:        len(members),
			AvgShared:   AvgSharedSize(b, members),
			SharedPctK2: SharedCompanyPct(b, members, 2),
		}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].AvgShared != scores[j].AvgShared {
			return scores[i].AvgShared > scores[j].AvgShared
		}
		return scores[i].Index < scores[j].Index
	})
	return scores
}
