package community

import (
	"math/rand"

	"crowdscope/internal/graph"
)

// Louvain maximizes weighted modularity on the one-mode projection of the
// investor graph with the classic two-phase Louvain method (local moves,
// then graph aggregation, repeated until modularity stops improving). A
// disjoint-communities baseline for CoDA.
type Louvain struct {
	Seed int64
}

// louvainLevels bounds the move-then-aggregate levels.
const louvainLevels = 10

// Name implements Detector.
func (l *Louvain) Name() string { return "louvain" }

// louvainGraph is a weighted undirected multigraph with self-loops used by
// the aggregation phases.
type louvainGraph struct {
	n     int
	adj   []map[int]float64 // adj[u][v] = weight (v != u)
	loops []float64         // self-loop weight (doubled-count convention)
	total float64           // sum of all edge weights (each edge once)
}

func (g *louvainGraph) degree(u int) float64 {
	d := g.loops[u] * 2
	for _, w := range g.adj[u] {
		d += w
	}
	return d
}

// Detect implements Detector.
func (l *Louvain) Detect(bp graph.BipartiteView) (*Assignment, error) {
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	g := &louvainGraph{
		n:     n,
		adj:   make([]map[int]float64, n),
		loops: make([]float64, n),
	}
	for i := range g.adj {
		g.adj[i] = map[int]float64{}
	}
	hasEdge := make([]bool, n)
	for _, e := range graph.ProjectLeft(bp, minShared) {
		g.adj[e.U][int(e.V)] += e.Weight
		g.adj[e.V][int(e.U)] += e.Weight
		g.total += e.Weight
		hasEdge[e.U] = true
		hasEdge[e.V] = true
	}
	if g.total == 0 {
		return &Assignment{}, nil
	}

	rng := rand.New(rand.NewSource(l.Seed))
	// membership[orig] tracks the current community of each original node.
	membership := make([]int, n)
	for i := range membership {
		membership[i] = i
	}

	for level := 0; level < louvainLevels; level++ {
		comm, improved := l.onePass(g, rng)
		if !improved {
			break
		}
		// Renumber communities densely.
		renum := map[int]int{}
		for _, c := range comm {
			if _, ok := renum[c]; !ok {
				renum[c] = len(renum)
			}
		}
		for i := range membership {
			membership[i] = renum[comm[membership[i]]]
		}
		if len(renum) == g.n {
			break // no aggregation happened
		}
		g = aggregate(g, comm, renum)
	}

	groups := map[int][]int32{}
	for u := 0; u < n; u++ {
		if !hasEdge[u] {
			continue
		}
		groups[membership[u]] = append(groups[membership[u]], int32(u))
	}
	a := &Assignment{}
	for _, members := range groups {
		if len(members) >= minMembers {
			a.Investors = append(a.Investors, members)
		}
	}
	a.normalize()
	sortCommunities(a)
	return a, nil
}

// onePass runs local moves until no single move improves modularity,
// returning the node→community map and whether anything moved.
func (l *Louvain) onePass(g *louvainGraph, rng *rand.Rand) ([]int, bool) {
	comm := make([]int, g.n)
	commDeg := make([]float64, g.n) // total degree per community
	for i := range comm {
		comm[i] = i
		commDeg[i] = g.degree(i)
	}
	m2 := 2 * g.total
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	improvedEver := false
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moves := 0
		for _, u := range order {
			cu := comm[u]
			du := g.degree(u)
			// Weight from u to each neighboring community.
			wTo := map[int]float64{}
			for v, w := range g.adj[u] {
				wTo[comm[v]] += w
			}
			// Remove u from its community.
			commDeg[cu] -= du
			best, bestGain := cu, 0.0
			baseW := wTo[cu]
			baseGain := baseW - commDeg[cu]*du/m2
			for c, w := range wTo {
				gain := w - commDeg[c]*du/m2
				if gain-baseGain > bestGain+1e-12 {
					best, bestGain = c, gain-baseGain
				}
			}
			comm[u] = best
			commDeg[best] += du
			if best != cu {
				moves++
				improvedEver = true
			}
		}
		if moves == 0 {
			break
		}
	}
	return comm, improvedEver
}

// aggregate collapses communities into super-nodes.
func aggregate(g *louvainGraph, comm []int, renum map[int]int) *louvainGraph {
	n := len(renum)
	ng := &louvainGraph{
		n:     n,
		adj:   make([]map[int]float64, n),
		loops: make([]float64, n),
		total: g.total,
	}
	for i := range ng.adj {
		ng.adj[i] = map[int]float64{}
	}
	for u := 0; u < g.n; u++ {
		cu := renum[comm[u]]
		ng.loops[cu] += g.loops[u]
		for v, w := range g.adj[u] {
			cv := renum[comm[v]]
			if cu == cv {
				// Each undirected edge appears twice in adj; halve into
				// the loop weight.
				ng.loops[cu] += w / 2
			} else {
				ng.adj[cu][cv] += w
			}
		}
	}
	return ng
}
