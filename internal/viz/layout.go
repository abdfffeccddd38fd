// Package viz renders the paper's figures: force-directed and banded
// SVG drawings of investor communities (Fig. 7; investors blue,
// companies red) and ASCII/CSV writers for the CDF and PDF series of
// Figs. 3-5. Every output is a pure function of its inputs and the
// layout seed, so drawings are reproducible byte for byte.
package viz

import (
	"math"
	"math/rand"
)

// point is a node position in the unit-free layout plane; the renderer
// scales positions into the canvas.
type point struct{ X, Y float64 }

const frIterations = 120

// forceLayout places n nodes with the Fruchterman–Reingold algorithm:
// all pairs repel with force k²/d, edge endpoints attract with d²/k, and
// a linearly cooling temperature caps each step. Initial positions come
// from the seeded generator, so a (n, edges, seed) triple always yields
// the same layout. Edges index nodes in [0, n).
func forceLayout(n int, edges [][2]int, seed int64) []point {
	pos := make([]point, n)
	if n == 0 {
		return pos
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range pos {
		pos[i] = point{rng.Float64(), rng.Float64()}
	}
	k := math.Sqrt(1 / float64(n))
	disp := make([]point, n)
	for it := 0; it < frIterations; it++ {
		temp := 0.1 * (1 - float64(it)/frIterations)
		for i := range disp {
			disp[i] = point{}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy := pos[i].X-pos[j].X, pos[i].Y-pos[j].Y
				d := math.Max(math.Hypot(dx, dy), 1e-9)
				f := k * k / d
				disp[i].X += dx / d * f
				disp[i].Y += dy / d * f
				disp[j].X -= dx / d * f
				disp[j].Y -= dy / d * f
			}
		}
		for _, e := range edges {
			a, b := e[0], e[1]
			dx, dy := pos[a].X-pos[b].X, pos[a].Y-pos[b].Y
			d := math.Max(math.Hypot(dx, dy), 1e-9)
			f := d * d / k
			disp[a].X -= dx / d * f
			disp[a].Y -= dy / d * f
			disp[b].X += dx / d * f
			disp[b].Y += dy / d * f
		}
		for i := range pos {
			d := math.Max(math.Hypot(disp[i].X, disp[i].Y), 1e-9)
			step := math.Min(d, temp)
			pos[i].X += disp[i].X / d * step
			pos[i].Y += disp[i].Y / d * step
		}
	}
	return pos
}

// bandLayout places the two node classes of a bipartite drawing in two
// columns, left nodes at x=0 and right nodes at x=1, each spread evenly
// over the unit height in index order.
func bandLayout(nLeft, nRight int) []point {
	pos := make([]point, 0, nLeft+nRight)
	column := func(n int, x float64) {
		for i := 0; i < n; i++ {
			pos = append(pos, point{x, (float64(i) + 0.5) / float64(n)})
		}
	}
	column(nLeft, 0)
	column(nRight, 1)
	return pos
}
