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
func (l *LabelProp) Detect(bp graph.BipartiteView) (*Assignment, error) {
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	type wEdge struct {
		to int32
		w  float64
	}
	adj := make([][]wEdge, n)
	for _, e := range graph.ProjectLeft(bp, minShared) {
		adj[e.U] = append(adj[e.U], wEdge{to: e.V, w: e.Weight})
		adj[e.V] = append(adj[e.V], wEdge{to: e.U, w: e.Weight})
	}

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(l.Seed))
	votes := map[int32]float64{}
	for iter := 0; iter < labelPropRounds; iter++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := 0
		for _, u := range order {
			if len(adj[u]) == 0 {
				continue
			}
			clear(votes)
			for _, e := range adj[u] {
				votes[labels[e.to]] += e.w
			}
			best := labels[u]
			bestW := votes[best] // stickiness: stay unless strictly better
			for lab, w := range votes {
				if w > bestW || (w == bestW && lab < best) {
					best, bestW = lab, w
				}
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

	groups := map[int32][]int32{}
	for u, lab := range labels {
		if len(adj[u]) == 0 {
			continue // isolated investors form no community
		}
		groups[lab] = append(groups[lab], int32(u))
	}
	a := &Assignment{}
	for _, members := range groups {
		if len(members) >= minMembers {
			a.Investors = append(a.Investors, members)
		}
	}
	a.normalize()
	// Deterministic community order: by first (smallest) member.
	sortCommunities(a)
	return a, nil
}

func sortCommunities(a *Assignment) {
	type pair struct {
		inv  []int32
		comp []int32
	}
	ps := make([]pair, len(a.Investors))
	for i := range a.Investors {
		ps[i].inv = a.Investors[i]
		if i < len(a.Companies) {
			ps[i].comp = a.Companies[i]
		}
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j].inv, ps[j-1].inv); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	a.Investors = a.Investors[:0]
	a.Companies = a.Companies[:0]
	for _, p := range ps {
		a.Investors = append(a.Investors, p.inv)
		a.Companies = append(a.Companies, p.comp)
	}
}

func less(a, b []int32) bool {
	if len(a) == 0 {
		return true
	}
	if len(b) == 0 {
		return false
	}
	return a[0] < b[0]
}
