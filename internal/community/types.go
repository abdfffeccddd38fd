package community

import (
	"sort"

	"crowdscope/internal/graph"
)

// Assignment is the output of a detector over a bipartite investor→company
// graph: per community, the investor members (left indices) and, when the
// algorithm models them, the company members (right indices). Communities
// may overlap; members within a community are sorted and unique.
type Assignment struct {
	// Investors[k] lists the left-node indices in community k.
	Investors [][]int32
	// Companies[k] lists the right-node indices in community k (empty for
	// one-mode algorithms that only cluster investors).
	Companies [][]int32
}

// NumCommunities returns the number of communities.
func (a *Assignment) NumCommunities() int { return len(a.Investors) }

// MeanInvestorSize returns the average investor-membership size (the
// paper reports 190.2 for its 96 CoDA communities).
func (a *Assignment) MeanInvestorSize() float64 {
	if len(a.Investors) == 0 {
		return 0
	}
	var sum int
	for _, m := range a.Investors {
		sum += len(m)
	}
	return float64(sum) / float64(len(a.Investors))
}

// normalize sorts members, removes duplicates and drops empty
// communities, canonicalizing detector output.
func (a *Assignment) normalize() {
	var inv, comp [][]int32
	for k := range a.Investors {
		m := uniqSorted(a.Investors[k])
		var c []int32
		if k < len(a.Companies) {
			c = uniqSorted(a.Companies[k])
		}
		if len(m) == 0 {
			continue
		}
		inv = append(inv, m)
		comp = append(comp, c)
	}
	a.Investors = inv
	a.Companies = comp
}

// partition turns one label per investor into a disjoint Assignment:
// each label in [0, len(labels)) held by at least minMembers investors
// with an edge in the projection p is one community, and communities
// come in order of their smallest member. Isolated investors form none.
func partition(p *graph.Projection, labels []int) *Assignment {
	groups := make([][]int32, len(labels))
	var firstSeen []int
	for u, lab := range labels {
		if p.Degree(int32(u)) == 0 {
			continue
		}
		if len(groups[lab]) == 0 {
			firstSeen = append(firstSeen, lab)
		}
		groups[lab] = append(groups[lab], int32(u))
	}
	a := &Assignment{}
	for _, lab := range firstSeen {
		if len(groups[lab]) >= minMembers {
			a.Investors = append(a.Investors, groups[lab])
		}
	}
	a.normalize()
	return a
}

func uniqSorted(xs []int32) []int32 {
	if len(xs) == 0 {
		return nil
	}
	s := append([]int32(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Every detector runs at one setting: callers choose K, the seed and
// CoDA's worker count, nothing else.
const (
	// minMembers is the fewest investors a reported community has.
	minMembers = 3
	// minShared is how many companies two investors must share to be
	// linked in the one-mode projection the baselines cluster.
	minShared = 1
	// fitMaxIter bounds the CoDA and BigCLAM sweeps; a fit stops sooner
	// once a sweep improves the likelihood by a relative amount under
	// fitTol.
	fitMaxIter = 50
	fitTol     = 1e-4
)

// Detector is the common interface of all community-detection algorithms,
// used by the comparison experiments.
type Detector interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Detect clusters the bipartite graph's investors.
	Detect(b *graph.FrozenBipartite) (*Assignment, error)
}

// RecoveryScore compares detected investor communities against planted
// ground truth with the standard average-F1 measure: for each truth
// community take the best-matching detected community's F1, and vice
// versa, then average the two directions.
func RecoveryScore(truth, detected [][]int32) float64 {
	if len(truth) == 0 || len(detected) == 0 {
		return 0
	}
	detSets := make([]map[int32]bool, len(detected))
	for i, d := range detected {
		m := make(map[int32]bool, len(d))
		for _, v := range d {
			m[v] = true
		}
		detSets[i] = m
	}
	truthSets := make([]map[int32]bool, len(truth))
	for i, d := range truth {
		m := make(map[int32]bool, len(d))
		for _, v := range d {
			m[v] = true
		}
		truthSets[i] = m
	}
	f1 := func(a []int32, bset map[int32]bool, blen int) float64 {
		if len(a) == 0 || blen == 0 {
			return 0
		}
		var inter int
		for _, v := range a {
			if bset[v] {
				inter++
			}
		}
		if inter == 0 {
			return 0
		}
		p := float64(inter) / float64(len(a))
		r := float64(inter) / float64(blen)
		return 2 * p * r / (p + r)
	}
	var fwd float64
	for i, tc := range truth {
		best := 0.0
		for j := range detected {
			if s := f1(tc, detSets[j], len(detected[j])); s > best {
				best = s
			}
		}
		_ = i
		fwd += best
	}
	fwd /= float64(len(truth))
	var bwd float64
	for j, dc := range detected {
		best := 0.0
		for i := range truth {
			if s := f1(dc, truthSets[i], len(truth[i])); s > best {
				best = s
			}
		}
		_ = j
		bwd += best
	}
	bwd /= float64(len(detected))
	return (fwd + bwd) / 2
}
