package community

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"crowdscope/internal/graph"
	"crowdscope/internal/predict"
)

// SelectK chooses the number of CoDA communities by hold-out link
// prediction — the standard model-selection recipe for affiliation
// models (and the kind of procedure behind the paper's "96 communities"):
// 10% of investment edges are held out, the model is fitted on the rest
// for each candidate K, and the K whose membership scores best separate
// held-out edges from random non-edges (ROC AUC) wins.
//
// It returns the chosen K and the per-candidate AUCs in candidate order.
// A graph too small to split, or with fewer non-edges than held-out
// edges, gets the first candidate and zero AUCs.
func SelectK(b *graph.FrozenBipartite, candidates []int, seed int64) (int, []float64, error) {
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("community: SelectK needs candidates")
	}
	nL, nR := b.NumLeft(), b.NumRight()
	if nL < 2 || nR < 2 || b.NumEdges() < 10 {
		return candidates[0], make([]float64, len(candidates)), nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Collect and split edges.
	type edge struct{ u, v int32 }
	var edges []edge
	for u := int32(0); int(u) < nL; u++ {
		for _, v := range b.Fwd(u) {
			edges = append(edges, edge{u, v})
		}
	}
	nHold := len(edges) / 10
	if nHold < 5 {
		nHold = 5
	}
	if nHold > len(edges)/2 {
		nHold = len(edges) / 2
	}
	// Too few non-edges to draw nHold negatives from: the rejection
	// sampler below would never finish.
	if nL*nR-len(edges) < nHold {
		return candidates[0], make([]float64, len(candidates)), nil
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	held := edges[:nHold]
	train := edges[nHold:]

	// Training graph keeps every node so indices line up.
	leftLabels, rightLabels := make([]string, nL), make([]string, nR)
	for u := range leftLabels {
		leftLabels[u] = b.LeftLabel(int32(u))
	}
	for v := range rightLabels {
		rightLabels[v] = b.RightLabel(int32(v))
	}
	rows := make([][]int32, nL)
	for _, e := range train {
		rows[e.u] = append(rows[e.u], e.v)
	}
	tb := graph.FromIndexRows(leftLabels, rightLabels, rows)

	// Negative samples: uniform non-edges of the full graph.
	negs := make([]edge, 0, nHold)
	for len(negs) < nHold {
		u := int32(rng.Intn(nL))
		v := int32(rng.Intn(nR))
		if _, linked := slices.BinarySearch(b.Fwd(u), v); !linked {
			negs = append(negs, edge{u, v})
		}
	}

	// Rank-based AUC over the held-out positives, scored first, vs the
	// sampled negatives.
	labels := make([]bool, len(held)+len(negs))
	for i := range held {
		labels[i] = true
	}
	aucs := make([]float64, len(candidates))
	bestK, bestAUC := candidates[0], -1.0
	for ci, k := range candidates {
		coda := &CoDA{K: k, Seed: seed}
		F, H, err := coda.fit(tb)
		if err != nil {
			return 0, nil, err
		}
		score := func(e edge) float64 {
			var dot float64
			for j := 0; j < k; j++ {
				dot += F[e.u][j] * H[e.v][j]
			}
			return 1 - math.Exp(-dot)
		}
		scores := make([]float64, 0, len(labels))
		for _, e := range held {
			scores = append(scores, score(e))
		}
		for _, e := range negs {
			scores = append(scores, score(e))
		}
		auc := predict.AUC(scores, labels)
		aucs[ci] = auc
		if auc > bestAUC {
			bestK, bestAUC = k, auc
		}
	}
	return bestK, aucs, nil
}
