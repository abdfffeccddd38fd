package community

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crowdscope/internal/graph"
	"crowdscope/internal/parallel"
)

// CoDA fits the Communities-through-Directed-Affiliations model of
// Yang–McAuley–Leskovec (WSDM'14) to a directed bipartite graph: every
// investor u carries an outgoing-membership vector F_u ≥ 0, every company
// v an incoming-membership vector H_v ≥ 0, and an investment edge u→v
// occurs with probability 1 − exp(−F_u·H_v). The fit maximizes the
// log-likelihood
//
//	L = Σ_{(u,v)∈E} log(1 − exp(−F_u·H_v)) − Σ_{(u,v)∉E} F_u·H_v
//
// by block-coordinate projected gradient ascent with backtracking line
// search; the bipartite structure makes the non-edge term exact via
// column-sum caches (no negative sampling needed). Nodes whose membership
// weight clears the background-density threshold δ = sqrt(−log(1−ε)) form
// each community.
type CoDA struct {
	// K is the number of communities to fit (the paper's run found 96 at
	// full scale).
	K int
	// Seed drives initialization noise.
	Seed int64
	// Workers bounds the parallelism of the block-coordinate sweeps;
	// <= 0 selects the process-default pool. Rows within a sweep are
	// independent given the opposite matrix and the column-sum caches;
	// a worker updates 64 consecutive rows at a time, and cache updates
	// merge in row order, so the fit is bit-identical for every worker
	// count. A side with at most 64 rows runs on one worker.
	Workers int
}

// Name implements Detector.
func (c *CoDA) Name() string { return "coda" }

// fit runs the gradient ascent and returns the membership matrices F
// (investors, outgoing) and H (companies, incoming). Used by Detect and
// by SelectK's held-out scoring.
func (c *CoDA) fit(b *graph.FrozenBipartite) (F, H [][]float64, err error) {
	if c.K <= 0 {
		return nil, nil, fmt.Errorf("community: CoDA needs K > 0, got %d", c.K)
	}
	nL, nR := b.NumLeft(), b.NumRight()
	K := c.K
	rng := rand.New(rand.NewSource(c.Seed))

	F = newMatrix(nL, K)
	H = newMatrix(nR, K)
	if nL == 0 || nR == 0 || b.NumEdges() == 0 {
		return F, H, nil
	}
	c.seed(b, F, H, rng)

	// Column-sum caches.
	SF := colSums(F, K)
	SH := colSums(H, K)

	pool := parallel.New(c.Workers)
	scratch := make([]*rowScratch, pool.WorkersFor(numBlocks(max(nL, nR))))
	for i := range scratch {
		scratch[i] = newRowScratch(K)
	}

	prevL := math.Inf(-1)
	for iter := 0; iter < fitMaxIter; iter++ {
		total := sweep(pool, scratch, F, b.Fwd, H, SH, SF)
		// Companies: their neighbours are investors, roles swapped.
		sweep(pool, scratch, H, b.Rev, F, SF, SH)
		if prevL != math.Inf(-1) {
			denom := math.Abs(prevL)
			if denom < 1e-12 {
				denom = 1e-12
			}
			if (total-prevL)/denom < fitTol && total >= prevL {
				prevL = total
				break
			}
		}
		prevL = total
	}
	return F, H, nil
}

// Detect implements Detector.
func (c *CoDA) Detect(b *graph.FrozenBipartite) (*Assignment, error) {
	nL, nR := b.NumLeft(), b.NumRight()
	F, H, err := c.fit(b)
	if err != nil {
		return nil, err
	}
	if nL == 0 || nR == 0 || b.NumEdges() == 0 {
		return &Assignment{}, nil
	}
	K := c.K

	// Threshold memberships by the background edge density.
	eps := float64(b.NumEdges()) / (float64(nL) * float64(nR))
	if eps >= 1 {
		eps = 0.999
	}
	delta := math.Sqrt(-math.Log(1 - eps))
	a := &Assignment{
		Investors: make([][]int32, K),
		Companies: make([][]int32, K),
	}
	for u := 0; u < nL; u++ {
		for k := 0; k < K; k++ {
			if F[u][k] >= delta {
				a.Investors[k] = append(a.Investors[k], int32(u))
			}
		}
	}
	for v := 0; v < nR; v++ {
		for k := 0; k < K; k++ {
			if H[v][k] >= delta {
				a.Companies[k] = append(a.Companies[k], int32(v))
			}
		}
	}
	// Drop undersized communities.
	var inv, comp [][]int32
	for k := 0; k < K; k++ {
		if len(a.Investors[k]) >= minMembers {
			inv = append(inv, a.Investors[k])
			comp = append(comp, a.Companies[k])
		}
	}
	a.Investors, a.Companies = inv, comp
	a.normalize()
	return a, nil
}

// seed initializes memberships from the neighborhoods of high-degree
// investors (an approximation of CoDA's locally-minimal-conductance
// seeding) plus uniform noise.
func (c *CoDA) seed(b *graph.FrozenBipartite, F, H [][]float64, rng *rand.Rand) {
	nL := b.NumLeft()
	nR := b.NumRight()
	K := c.K
	// Noise floor, scaled so a whole column's background mass stays O(1):
	// with per-entry noise ~0.1 the non-edge penalty Σ_v H_v would swamp
	// the edge term on graphs with many companies and the gradient would
	// zero the seeds out.
	fNoise := 2.0 / float64(nR)
	hNoise := 2.0 / float64(nL)
	for u := range F {
		for k := range F[u] {
			F[u][k] = rng.Float64() * fNoise
		}
	}
	for v := range H {
		for k := range H[v] {
			H[v][k] = rng.Float64() * hNoise
		}
	}
	// Degree-ranked seed investors, skipping ones already claimed so
	// seeds spread across the graph.
	order := make([]int32, nL)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := b.OutDegree(order[i]), b.OutDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	claimed := make([]bool, nL)
	k := 0
	for _, u := range order {
		if k >= K {
			break
		}
		if claimed[u] {
			continue
		}
		// Seed community k with u, u's companies, and u's co-investors.
		F[u][k] = 1
		claimed[u] = true
		for _, v := range b.Fwd(u) {
			H[v][k] = 1
			for _, w := range b.Rev(v) {
				F[w][k] = 1
				claimed[w] = true
			}
		}
		k++
	}
	// Any remaining communities start from random investors.
	for ; k < K; k++ {
		u := int32(rng.Intn(nL))
		F[u][k] = 1
		for _, v := range b.Fwd(u) {
			H[v][k] = 1
		}
	}
}

// sweepBlock is the number of consecutive rows one sweep task updates.
// Pool.Ordered hands off once per task, and a row is a few µs of work:
// with a task per row the fit ran slower at two workers than at one.
const sweepBlock = 64

func numBlocks(rows int) int { return (rows + sweepBlock - 1) / sweepBlock }

// sweep runs one half of a block-coordinate sweep: every row X[i] takes a
// projected-gradient step against the opposite matrix other, whose
// column sums are sumOther, with neighbours adj(i). Within a sweep a row
// update reads only its own row, other and sumOther; the row's own cache
// sumX is written but never read. So workers update blocks of sweepBlock
// rows concurrently, and the blocks merge in block order, adding each
// row's cache delta into sumX and its likelihood into the returned total
// in row order — the serial loop's additions, bit for bit.
func sweep(pool *parallel.Pool, scratch []*rowScratch, X [][]float64, adj func(int32) []int32, other [][]float64, sumOther, sumX []float64) float64 {
	n, K := len(X), len(sumX)
	var total float64
	pool.Ordered(numBlocks(n),
		func(w, blk int) {
			sc := scratch[w]
			lo, hi := blk*sweepBlock, min((blk+1)*sweepBlock, n)
			for i := lo; i < hi; i++ {
				j := i - lo
				sc.lik[j] = updateRow(X[i], adj(int32(i)), other, sumOther, sc, sc.diff[j*K:(j+1)*K])
			}
		},
		func(w, blk int) {
			sc := scratch[w]
			rows := min(sweepBlock, n-blk*sweepBlock)
			for j := 0; j < rows; j++ {
				total += sc.lik[j]
				for k, d := range sc.diff[j*K : (j+1)*K] {
					sumX[k] += d
				}
			}
		})
	return total
}

// rowScratch holds one worker's reusable buffers for updateRow plus the
// per-row outputs of the block it is updating, consumed by the ordered
// merge.
type rowScratch struct {
	grad, rest, newX []float64
	act              []int
	// diff[j*K:(j+1)*K] is the block's j-th row's column-sum cache delta
	// (newX − X, or zeros when the line search rejects); lik[j] that
	// row's post-update likelihood.
	diff []float64
	lik  []float64
}

func newRowScratch(k int) *rowScratch {
	return &rowScratch{
		grad: make([]float64, k),
		rest: make([]float64, k),
		newX: make([]float64, k),
		act:  make([]int, 0, k),
		diff: make([]float64, sweepBlock*k),
		lik:  make([]float64, sweepBlock),
	}
}

// updateRow performs one projected-gradient step with backtracking for a
// single row X (either an F_u against H, or an H_v against F), returning
// the row's post-update local likelihood. neighbors are the row's linked
// opposite-side nodes; sumOther is the column-sum cache of the opposite
// matrix. X is updated in place, and its change written to diff for the
// caller to apply to the row's own column-sum cache (in row order, to
// keep the fit deterministic).
func updateRow(X []float64, neighbors []int32, other [][]float64, sumOther []float64, sc *rowScratch, diff []float64) float64 {
	K := len(X)
	grad, rest := sc.grad, sc.rest
	for k := 0; k < K; k++ {
		grad[k] = 0
		rest[k] = 0
		diff[k] = 0
	}
	// One pass over the neighbours gives the gradient
	// Σ_{v∈N} other_v * e^{-x}/(1-e^{-x}) − (sumOther − Σ_{v∈N} other_v)
	// and, from the same e, the edge half of the row's current likelihood.
	var base float64
	for _, v := range neighbors {
		row := other[v][:K]
		e := math.Exp(-dotClamped(X, row))
		coef := e / (1 - e)
		base += math.Log(1 - e)
		for k := 0; k < K; k++ {
			grad[k] += row[k] * coef
			rest[k] += row[k]
		}
	}
	// rest becomes the non-neighbour column mass sumOther − Σ_{v∈N} other_v,
	// which no line-search step changes. An entry at 0 whose gradient
	// does not point up is clamped back to 0 by every step; act lists the
	// others, the only entries the line search has to walk.
	act := sc.act[:0]
	for k := 0; k < K; k++ {
		rest[k] = sumOther[k] - rest[k]
		grad[k] -= rest[k]
		base -= X[k] * rest[k]
		if !(X[k] == 0 && grad[k] <= 0) {
			act = append(act, k)
		}
	}
	// Backtracking line search on the row likelihood. Two tests reject a
	// step exactly as evaluating it would, without the exp/log:
	//   - rowLikelihood's edge sum is ≤ 0 (each term is the log of a value
	//     in (0, 1]) and rounding is monotone, so bound — the same
	//     subtractions applied to 0 instead — is never below what
	//     rowLikelihood returns: a step whose bound does not beat base
	//     fails. The entries act leaves out subtract 0·rest[k] = 0, so
	//     bound skips them without changing its value;
	//   - a step whose newX is bit for bit the previous (rejected) step's,
	//     or X itself, would return that step's likelihood or base again.
	eta := 0.05
	newX := sc.newX
	copy(newX, X)
	for step := 0; step < 10; step++ {
		var bound float64
		moved := false
		for _, k := range act {
			v := X[k] + eta*grad[k]
			if v < 0 {
				v = 0
			}
			if v > 1000 {
				v = 1000
			}
			if math.Float64bits(v) != math.Float64bits(newX[k]) {
				moved = true
			}
			newX[k] = v
			bound -= v * rest[k]
		}
		if moved && bound > base {
			if l := rowLikelihood(newX, neighbors, other, rest); l > base {
				for k := 0; k < K; k++ {
					diff[k] = newX[k] - X[k]
					X[k] = newX[k]
				}
				return l
			}
		}
		eta /= 2
	}
	return base
}

// rowLikelihood computes Σ_{v∈N} log(1−e^{−X·other_v}) − X·rest, where
// rest = sumOther − Σ_{v∈N} other_v is the row's non-neighbour column mass.
func rowLikelihood(X []float64, neighbors []int32, other [][]float64, rest []float64) float64 {
	var l float64
	for _, v := range neighbors {
		l += math.Log(1 - math.Exp(-dotClamped(X, other[v])))
	}
	for k := range X {
		l -= X[k] * rest[k]
	}
	return l
}

// dotClamped returns max(X·Y, 1e-10) so log(1−e^{−dot}) stays finite.
func dotClamped(x, y []float64) float64 {
	y = y[:len(x)]
	var d float64
	for k := range x {
		d += x[k] * y[k]
	}
	if d < 1e-10 {
		d = 1e-10
	}
	return d
}

func newMatrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

func colSums(m [][]float64, k int) []float64 {
	s := make([]float64, k)
	for _, row := range m {
		for j, v := range row {
			s[j] += v
		}
	}
	return s
}
