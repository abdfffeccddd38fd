package community

import (
	"math/rand"

	"crowdscope/internal/graph"
)

// LabelProp runs weighted asynchronous label propagation on the one-mode
// projection of the investor graph: each node repeatedly adopts the label
// with the greatest total edge weight among its neighbors until labels
// stabilize. It produces disjoint communities and represents the
// "standard community detection on undirected graphs" family the paper
// contrasts CoDA with.
type LabelProp struct {
	Seed int64
}

// labelPropRounds bounds the propagation rounds; it stops sooner once a
// round changes no label.
const labelPropRounds = 30

// Name implements Detector.
func (l *LabelProp) Name() string { return "labelprop" }

// Detect implements Detector.
func (l *LabelProp) Detect(bp *graph.FrozenBipartite) (*Assignment, error) {
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	p := graph.ProjectLeft(bp, minShared)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(l.Seed))
	// votes[lab] is u's edge weight into label lab, for lab in voted.
	votes := make([]float64, n)
	var voted []int
	for iter := 0; iter < labelPropRounds; iter++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := 0
		for _, u := range order {
			nbrs, ws := p.Row(int32(u))
			if len(nbrs) == 0 {
				continue
			}
			voted = voted[:0]
			for i, v := range nbrs {
				if votes[labels[v]] == 0 {
					voted = append(voted, labels[v])
				}
				votes[labels[v]] += ws[i]
			}
			// The heaviest label wins, the smallest among equals.
			best := labels[u]
			bestW := votes[best]
			for _, lab := range voted {
				if w := votes[lab]; w > bestW || (w == bestW && lab < best) {
					best, bestW = lab, w
				}
			}
			for _, lab := range voted {
				votes[lab] = 0
			}
			if best != labels[u] {
				labels[u] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	return partition(p, labels), nil
}
