package community

import (
	"math/rand"
	"slices"

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

// louvainGraph is one level's graph: the weighted projection among its
// nodes plus each node's self-loop weight, which aggregation creates.
type louvainGraph struct {
	adj   *graph.Projection
	loops []float64 // self-loop weight (doubled-count convention)
	total float64   // sum of all edge weights (each edge once)
}

func (g *louvainGraph) degree(u int) float64 {
	d := g.loops[u] * 2
	_, ws := g.adj.Row(int32(u))
	for _, w := range ws {
		d += w
	}
	return d
}

// Detect implements Detector.
func (l *Louvain) Detect(bp *graph.FrozenBipartite) (*Assignment, error) {
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	p := graph.ProjectLeft(bp, minShared)
	g := &louvainGraph{adj: p, loops: make([]float64, n)}
	for u := range n {
		g.total += g.degree(u) / 2
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
		// Renumber communities densely, in order of first member.
		renum := make([]int, len(comm))
		for c := range renum {
			renum[c] = -1
		}
		k := 0
		for u, c := range comm {
			if renum[c] < 0 {
				renum[c] = k
				k++
			}
			comm[u] = renum[c]
		}
		for i := range membership {
			membership[i] = comm[membership[i]]
		}
		if k == len(comm) {
			break // no aggregation happened
		}
		g = aggregate(g, comm, k)
	}
	return partition(p, membership), nil
}

// onePass runs local moves until no single move improves modularity,
// returning the node→community map and whether anything moved. Among
// equally good communities a node joins the one with the smallest ID.
func (l *Louvain) onePass(g *louvainGraph, rng *rand.Rand) ([]int, bool) {
	n := len(g.loops)
	comm := make([]int, n)
	commDeg := make([]float64, n) // total degree per community
	for i := range comm {
		comm[i] = i
		commDeg[i] = g.degree(i)
	}
	m2 := 2 * g.total
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// wTo[c] is u's edge weight into community c, for c in cands.
	wTo := make([]float64, n)
	var cands []int
	improvedEver := false
	for round := 0; round < 20; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moves := 0
		for _, u := range order {
			cu := comm[u]
			du := g.degree(u)
			cands = cands[:0]
			nbrs, ws := g.adj.Row(int32(u))
			for i, v := range nbrs {
				c := comm[v]
				if wTo[c] == 0 {
					cands = append(cands, c)
				}
				wTo[c] += ws[i]
			}
			slices.Sort(cands)
			// Remove u from its community.
			commDeg[cu] -= du
			best, bestGain := cu, 0.0
			baseGain := wTo[cu] - commDeg[cu]*du/m2
			for _, c := range cands {
				gain := wTo[c] - commDeg[c]*du/m2
				if gain-baseGain > bestGain+1e-12 {
					best, bestGain = c, gain-baseGain
				}
			}
			for _, c := range cands {
				wTo[c] = 0
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

// aggregate collapses the k communities of comm into super-nodes, each
// keeping its members' self-loops and the weight between them.
func aggregate(g *louvainGraph, comm []int, k int) *louvainGraph {
	adj, loops := g.adj.Collapse(comm, k)
	for u, c := range comm {
		loops[c] += g.loops[u]
	}
	return &louvainGraph{adj: adj, loops: loops, total: g.total}
}
