package community

import (
	"fmt"
	"math"
	"math/rand"

	"crowdscope/internal/graph"
)

// SBM infers communities with a degree-corrected stochastic block model
// (Karrer–Newman), the method the paper proposes for its future
// longitudinal analysis (Section 7, citing Choi–Wolfe–Airoldi). Inference
// runs on the weighted one-mode projection of the directed bipartite
// investment graph: spectral initialization (orthogonal iteration on the
// normalized adjacency, then k-means on the embeddings) followed by
// greedy single-node moves that maximize the DC-SBM profile
// log-likelihood
//
//	L = Σ_{rs} m_rs log( m_rs / (κ_r κ_s) )
//
// where m_rs is the weight between blocks r and s and κ_r the total
// degree of block r.
type SBM struct {
	K    int
	Seed int64
}

const (
	sbmSweeps     = 20 // bound on the greedy refinement sweeps
	sbmPowerIters = 50 // orthogonal-iteration steps
)

// Name implements Detector.
func (s *SBM) Name() string { return "sbm" }

// Detect implements Detector.
func (s *SBM) Detect(bp *graph.FrozenBipartite) (*Assignment, error) {
	if s.K <= 0 {
		return nil, fmt.Errorf("community: SBM needs K > 0, got %d", s.K)
	}
	n := bp.NumLeft()
	if n == 0 {
		return &Assignment{}, nil
	}
	K := s.K
	if K > n {
		K = n
	}

	p := graph.ProjectLeft(bp, minShared)
	deg := make([]float64, n)
	for u := range deg {
		_, ws := p.Row(int32(u))
		for _, w := range ws {
			deg[u] += w
		}
	}

	rng := rand.New(rand.NewSource(s.Seed))

	// --- Spectral embedding: orthogonal iteration on D^-1/2 A D^-1/2. ---
	invSqrt := make([]float64, n)
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	dim := K
	vecs := make([][]float64, dim)
	for d := range vecs {
		vecs[d] = make([]float64, n)
		for i := range vecs[d] {
			vecs[d][i] = rng.NormFloat64()
		}
	}
	tmp := make([]float64, n)
	apply := func(x, out []float64) {
		for i := range out {
			out[i] = 0
		}
		for u := 0; u < n; u++ {
			xu := x[u] * invSqrt[u]
			nbrs, ws := p.Row(int32(u))
			for i, v := range nbrs {
				out[v] += ws[i] * xu * invSqrt[v]
			}
		}
	}
	for it := 0; it < sbmPowerIters; it++ {
		for d := range vecs {
			apply(vecs[d], tmp)
			copy(vecs[d], tmp)
		}
		gramSchmidt(vecs)
	}

	// --- k-means on per-node embeddings (rows of the vecs matrix). ---
	emb := make([][]float64, n)
	for i := range emb {
		emb[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			emb[i][d] = vecs[d][i]
		}
	}
	blocks := kmeans(emb, K, 25, rng)

	// --- Greedy DC-SBM refinement. ---
	// Isolated nodes stay out of the likelihood (zero degree).
	m := newMatrix(K, K) // block-to-block weights (symmetric, double-count off-diagonal)
	kappa := make([]float64, K)
	for u := 0; u < n; u++ {
		kappa[blocks[u]] += deg[u]
		nbrs, ws := p.Row(int32(u))
		for i, v := range nbrs {
			m[blocks[u]][blocks[v]] += ws[i]
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	wTo := make([]float64, K)
	for sweep := 0; sweep < sbmSweeps; sweep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		moves := 0
		for _, u := range order {
			if deg[u] == 0 {
				continue
			}
			cur := blocks[u]
			for k := range wTo {
				wTo[k] = 0
			}
			nbrs, ws := p.Row(int32(u))
			for i, v := range nbrs {
				wTo[blocks[v]] += ws[i]
			}
			best, bestDelta := cur, 0.0
			for cand := 0; cand < K; cand++ {
				if cand == cur {
					continue
				}
				delta := dcsbmMoveDelta(m, kappa, wTo, deg[u], cur, cand, K)
				if delta > bestDelta+1e-9 {
					best, bestDelta = cand, delta
				}
			}
			if best != cur {
				applyMove(m, kappa, wTo, deg[u], cur, best)
				blocks[u] = best
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}

	return partition(p, blocks), nil
}

// dcsbmLikelihood computes Σ_rs m_rs log(m_rs/(κ_r κ_s)) over non-zero
// entries.
func dcsbmLikelihood(m [][]float64, kappa []float64, K int) float64 {
	var l float64
	for r := 0; r < K; r++ {
		if kappa[r] == 0 {
			continue
		}
		for s := 0; s < K; s++ {
			if m[r][s] > 0 && kappa[s] > 0 {
				l += m[r][s] * math.Log(m[r][s]/(kappa[r]*kappa[s]))
			}
		}
	}
	return l
}

// dcsbmMoveDelta evaluates the likelihood change of moving a node with
// the given degree and neighbor-block weights from block cur to cand, by
// applying, measuring and reverting.
func dcsbmMoveDelta(m [][]float64, kappa, wTo []float64, degU float64, cur, cand, K int) float64 {
	before := dcsbmLikelihood(m, kappa, K)
	applyMove(m, kappa, wTo, degU, cur, cand)
	after := dcsbmLikelihood(m, kappa, K)
	applyMove(m, kappa, wTo, degU, cand, cur) // revert (wTo unchanged by the move since u's neighbors stay put)
	return after - before
}

// applyMove updates the block matrices for moving one node from block a
// to block b. Edges to same-block neighbors were counted in wTo[a] before
// the move and are handled like any other, because wTo is expressed in
// *neighbor* blocks, which do not change; the projection has no
// self-loops.
func applyMove(m [][]float64, kappa, wTo []float64, degU float64, a, b int) {
	for s := range wTo {
		w := wTo[s]
		if w == 0 {
			continue
		}
		m[a][s] -= w
		m[s][a] -= w
		m[b][s] += w
		m[s][b] += w
	}
	kappa[a] -= degU
	kappa[b] += degU
}

// gramSchmidt orthonormalizes the vectors in place.
func gramSchmidt(vecs [][]float64) {
	for i := range vecs {
		for j := 0; j < i; j++ {
			var dot float64
			for k := range vecs[i] {
				dot += vecs[i][k] * vecs[j][k]
			}
			for k := range vecs[i] {
				vecs[i][k] -= dot * vecs[j][k]
			}
		}
		var norm float64
		for _, v := range vecs[i] {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue
		}
		for k := range vecs[i] {
			vecs[i][k] /= norm
		}
	}
}

// kmeans clusters points into K groups with k-means++ style seeding and
// Lloyd iterations, returning per-point assignments.
func kmeans(points [][]float64, K, iters int, rng *rand.Rand) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	dim := len(points[0])
	centers := make([][]float64, 0, K)
	centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
	dist2 := func(a, b []float64) float64 {
		var d float64
		for i := range a {
			diff := a[i] - b[i]
			d += diff * diff
		}
		return d
	}
	for len(centers) < K {
		// k-means++: sample proportional to squared distance to nearest
		// center.
		ds := make([]float64, n)
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := dist2(p, c); d < best {
					best = d
				}
			}
			ds[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range ds {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), points[idx]...))
	}
	assign := make([]int, n)
	counts := make([]int, K)
	for it := 0; it < iters; it++ {
		changed := 0
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := dist2(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || it == 0 {
				if assign[i] != best {
					changed++
				}
				assign[i] = best
			}
		}
		if it > 0 && changed == 0 {
			break
		}
		for c := range centers {
			for d := 0; d < dim; d++ {
				centers[c][d] = 0
			}
			counts[c] = 0
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				centers[c][d] += p[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				copy(centers[c], points[rng.Intn(n)])
				continue
			}
			for d := 0; d < dim; d++ {
				centers[c][d] /= float64(counts[c])
			}
		}
	}
	return assign
}
