package community

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crowdscope/internal/graph"
)

// plantedRows draws a bipartite graph with k disjoint planted
// communities: each has m investors and c companies, every member invests
// in each community company with probability dense, plus sparse random
// cross-community noise. Returns investor u's company row (duplicates
// possible) and the ground-truth investor communities (left indices).
func plantedRows(k, m, c int, dense, noise float64, seed int64) ([][]int32, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int32, k*m)
	truth := make([][]int32, k)
	for g := 0; g < k; g++ {
		for i := 0; i < m; i++ {
			inv := g*m + i
			truth[g] = append(truth[g], int32(inv))
			for j := 0; j < c; j++ {
				if rng.Float64() < dense {
					rows[inv] = append(rows[inv], int32(g*c+j))
				}
			}
			// Noise edges anywhere.
			for t := 0; t < 2; t++ {
				if rng.Float64() < noise {
					rows[inv] = append(rows[inv], int32(rng.Intn(k*c)))
				}
			}
		}
	}
	return rows, truth
}

// plantedGraph is plantedRows' graph, over investors i0.. and companies
// c0.. numbered by index.
func plantedGraph(k, m, c int, dense, noise float64, seed int64) (*graph.FrozenBipartite, [][]int32) {
	rows, truth := plantedRows(k, m, c, dense, noise, seed)
	return identityGraph(rows, k*c), truth
}

// identityGraph builds the graph in which investor i<u> invests in the
// companies c<v> of rows[u], with nRight companies in all.
func identityGraph(rows [][]int32, nRight int) *graph.FrozenBipartite {
	labels := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(prefix, i)
		}
		return out
	}
	return graph.FromIndexRows(labels("i", len(rows)), labels("c", nRight), rows)
}

// emptyGraph has no node at all.
var emptyGraph = graph.FromIndexRows(nil, nil, nil)

func TestCoDARecoversPlantedCommunities(t *testing.T) {
	b, truth := plantedGraph(4, 12, 8, 0.8, 0.1, 1)
	coda := &CoDA{K: 4, Seed: 1}
	a, err := coda.Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCommunities() < 3 {
		t.Fatalf("CoDA found %d communities, want ≈4", a.NumCommunities())
	}
	score := RecoveryScore(truth, a.Investors)
	if score < 0.7 {
		t.Errorf("CoDA recovery F1 = %.3f, want >= 0.7", score)
	}
	// CoDA also assigns companies.
	var totalCompanies int
	for _, cs := range a.Companies {
		totalCompanies += len(cs)
	}
	if totalCompanies == 0 {
		t.Error("CoDA assigned no companies to communities")
	}
}

func TestCoDAValidation(t *testing.T) {
	if _, err := (&CoDA{}).Detect(emptyGraph); err == nil {
		t.Fatal("K=0 should error")
	}
	// Empty graph: no communities, no error.
	a, err := (&CoDA{K: 3}).Detect(emptyGraph)
	if err != nil || a.NumCommunities() != 0 {
		t.Fatalf("empty graph: %v, %d", err, a.NumCommunities())
	}
}

func TestCoDADeterministic(t *testing.T) {
	b, _ := plantedGraph(3, 10, 6, 0.8, 0.1, 2)
	a1, err := (&CoDA{K: 3, Seed: 9}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := (&CoDA{K: 3, Seed: 9}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumCommunities() != a2.NumCommunities() {
		t.Fatal("CoDA not deterministic in community count")
	}
	for k := range a1.Investors {
		if len(a1.Investors[k]) != len(a2.Investors[k]) {
			t.Fatal("CoDA not deterministic in membership")
		}
		for i := range a1.Investors[k] {
			if a1.Investors[k][i] != a2.Investors[k][i] {
				t.Fatal("CoDA not deterministic in members")
			}
		}
	}
}

func TestCoDAOverlapAllowed(t *testing.T) {
	// Two communities sharing two investors: overlapping membership
	// should be representable (a disjoint method cannot do this).
	rows, _ := plantedRows(2, 10, 8, 0.9, 0, 3)
	// Make investors 0 and 1 also invest in the second community.
	for j := int32(8); j < 16; j++ {
		rows[0] = append(rows[0], j)
		rows[1] = append(rows[1], j)
	}
	b := identityGraph(rows, 16)
	a, err := (&CoDA{K: 2, Seed: 4}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCommunities() < 2 {
		t.Skipf("CoDA merged communities (%d found)", a.NumCommunities())
	}
	seen := map[int32]int{}
	for _, comm := range a.Investors {
		for _, u := range comm {
			seen[u]++
		}
	}
	overlapping := 0
	for _, n := range seen {
		if n > 1 {
			overlapping++
		}
	}
	if overlapping == 0 {
		t.Error("expected overlapping members for bridge investors")
	}
}

func TestBigCLAMRecoversPlantedCommunities(t *testing.T) {
	b, truth := plantedGraph(4, 12, 8, 0.8, 0.1, 5)
	a, err := (&BigCLAM{K: 4, Seed: 5}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	score := RecoveryScore(truth, a.Investors)
	if score < 0.7 {
		t.Errorf("BigCLAM recovery F1 = %.3f, want >= 0.7", score)
	}
}

func TestBigCLAMValidation(t *testing.T) {
	if _, err := (&BigCLAM{}).Detect(emptyGraph); err == nil {
		t.Fatal("K=0 should error")
	}
}

func TestLabelPropRecoversPlantedCommunities(t *testing.T) {
	b, truth := plantedGraph(4, 12, 8, 0.85, 0.05, 6)
	a, err := (&LabelProp{Seed: 6}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	score := RecoveryScore(truth, a.Investors)
	if score < 0.7 {
		t.Errorf("label propagation recovery F1 = %.3f, want >= 0.7", score)
	}
	// Disjoint: no investor in two communities.
	seen := map[int32]bool{}
	for _, comm := range a.Investors {
		for _, u := range comm {
			if seen[u] {
				t.Fatal("label propagation produced overlapping communities")
			}
			seen[u] = true
		}
	}
}

func TestLouvainRecoversPlantedCommunities(t *testing.T) {
	b, truth := plantedGraph(4, 12, 8, 0.85, 0.05, 7)
	a, err := (&Louvain{Seed: 7}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	score := RecoveryScore(truth, a.Investors)
	if score < 0.7 {
		t.Errorf("louvain recovery F1 = %.3f, want >= 0.7", score)
	}
}

func TestSBMRecoversPlantedCommunities(t *testing.T) {
	b, truth := plantedGraph(4, 12, 8, 0.85, 0.05, 8)
	a, err := (&SBM{K: 4, Seed: 8}).Detect(b)
	if err != nil {
		t.Fatal(err)
	}
	score := RecoveryScore(truth, a.Investors)
	if score < 0.7 {
		t.Errorf("SBM recovery F1 = %.3f, want >= 0.7", score)
	}
}

func TestSBMValidation(t *testing.T) {
	if _, err := (&SBM{}).Detect(emptyGraph); err == nil {
		t.Fatal("K=0 should error")
	}
}

func TestDetectorsOnEmptyProjection(t *testing.T) {
	// Investors that never co-invest: projection is empty; one-mode
	// detectors must return no communities without failing.
	b := identityGraph([][]int32{{0}, {1}, {2}, {3}}, 4)
	for _, det := range []Detector{
		&BigCLAM{K: 2, Seed: 1},
		&LabelProp{Seed: 1},
		&Louvain{Seed: 1},
	} {
		a, err := det.Detect(b)
		if err != nil {
			t.Fatalf("%s: %v", det.Name(), err)
		}
		if a.NumCommunities() != 0 {
			t.Errorf("%s found %d communities in an empty projection", det.Name(), a.NumCommunities())
		}
	}
}

// ringGraph links investor i_k and i_{k+1} (mod n) through company c_k:
// its projection is an n-cycle of unit weights, every node's neighbour
// communities tie, and so a detector that breaks ties by map order
// returns a different answer run to run.
func ringGraph(n int) *graph.FrozenBipartite {
	rows := make([][]int32, n)
	for k := 0; k < n; k++ {
		rows[k] = append(rows[k], int32(k))
		rows[(k+1)%n] = append(rows[(k+1)%n], int32(k))
	}
	return identityGraph(rows, n)
}

// TestProjectedDetectorsDeterministic pins that every detector on the
// one-mode projection returns one answer per seed, on a graph full of
// ties and on a planted partition.
func TestProjectedDetectorsDeterministic(t *testing.T) {
	planted, _ := plantedGraph(4, 12, 8, 0.85, 0.05, 7)
	inputs := []struct {
		name string
		b    *graph.FrozenBipartite
	}{{"ring", ringGraph(12)}, {"planted", planted}}
	detectors := []Detector{
		&BigCLAM{K: 4, Seed: 1},
		&SBM{K: 4, Seed: 1},
		&LabelProp{Seed: 1},
		&Louvain{Seed: 1},
	}
	for _, in := range inputs {
		for _, det := range detectors {
			t.Run(in.name+"/"+det.Name(), func(t *testing.T) {
				distinct := map[string]bool{}
				for run := 0; run < 200; run++ {
					a, err := det.Detect(in.b)
					if err != nil {
						t.Fatal(err)
					}
					distinct[fmt.Sprint(a.Investors)] = true
				}
				if len(distinct) != 1 {
					t.Fatalf("200 runs at one seed gave %d distinct assignments, want 1", len(distinct))
				}
			})
		}
	}
}

func TestRecoveryScore(t *testing.T) {
	truth := [][]int32{{1, 2, 3}, {4, 5, 6}}
	if s := RecoveryScore(truth, truth); s != 1 {
		t.Errorf("perfect recovery = %g", s)
	}
	if s := RecoveryScore(truth, [][]int32{{7, 8, 9}}); s != 0 {
		t.Errorf("disjoint recovery = %g", s)
	}
	if s := RecoveryScore(truth, nil); s != 0 {
		t.Errorf("empty detected = %g", s)
	}
	half := RecoveryScore(truth, [][]int32{{1, 2, 3}})
	if half <= 0.4 || half >= 1 {
		t.Errorf("partial recovery = %g", half)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := &Assignment{Investors: [][]int32{{3, 1, 1, 2}, {}, {5}}}
	a.normalize()
	// Empty community dropped; duplicates removed; sorted.
	if a.NumCommunities() != 2 {
		t.Fatalf("communities = %d", a.NumCommunities())
	}
	if len(a.Investors[0]) != 3 || a.Investors[0][0] != 1 {
		t.Fatalf("normalized = %v", a.Investors[0])
	}
	if a.MeanInvestorSize() != 2 {
		t.Fatalf("mean size = %g", a.MeanInvestorSize())
	}
	empty := &Assignment{}
	if empty.MeanInvestorSize() != 0 {
		t.Fatal("empty mean size should be 0")
	}
}

func TestDetectorNames(t *testing.T) {
	names := map[string]bool{}
	for _, det := range []Detector{&CoDA{K: 1}, &BigCLAM{K: 1}, &LabelProp{}, &Louvain{}, &SBM{K: 1}} {
		if det.Name() == "" || names[det.Name()] {
			t.Errorf("bad or duplicate detector name %q", det.Name())
		}
		names[det.Name()] = true
	}
}

func TestSelectK(t *testing.T) {
	// Planted graph with 4 clear communities: the CV should prefer K near
	// 4 over gross mis-specifications.
	b, _ := plantedGraph(4, 14, 8, 0.85, 0.03, 9)
	k, aucs, err := SelectK(b, []int{1, 4, 12}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(aucs) != 3 {
		t.Fatalf("aucs = %v", aucs)
	}
	for _, a := range aucs {
		if a < 0 || a > 1 {
			t.Fatalf("AUC out of range: %v", aucs)
		}
	}
	if k == 1 {
		t.Errorf("SelectK chose K=1 (aucs %v)", aucs)
	}
	// K=4's AUC should beat K=1's (more structure captured).
	if aucs[1] <= aucs[0] {
		t.Errorf("K=4 AUC %.3f not above K=1 AUC %.3f", aucs[1], aucs[0])
	}
}

func TestSelectKDegenerate(t *testing.T) {
	if _, _, err := SelectK(emptyGraph, nil, 1); err == nil {
		t.Fatal("no candidates accepted")
	}
	// Tiny graph: falls back to the first candidate without error.
	b := graph.FromIndexRows([]string{"a"}, []string{"x"}, [][]int32{{0}})
	k, _, err := SelectK(b, []int{3, 5}, 1)
	if err != nil || k != 3 {
		t.Fatalf("fallback k = %d, err %v", k, err)
	}
}

// TestSelectKCompleteGraphReturns: a complete bipartite graph has no
// non-edge to sample as a negative, so SelectK must fall back to the
// first candidate instead of drawing pairs forever.
func TestSelectKCompleteGraphReturns(t *testing.T) {
	b := identityGraph([][]int32{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}}, 5)
	type result struct {
		k    int
		aucs []float64
		err  error
	}
	done := make(chan result, 1)
	go func() {
		k, aucs, err := SelectK(b, []int{1, 2}, 1)
		done <- result{k, aucs, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.k != 1 || len(r.aucs) != 2 || r.aucs[0] != 0 || r.aucs[1] != 0 {
			t.Fatalf("SelectK on a complete graph = %d, %v, %v; want 1, [0 0], nil", r.k, r.aucs, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SelectK did not return on a graph with no non-edges")
	}
}
