package viz

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"math"

	"crowdscope/internal/graph"
)

// Canvas geometry and the paper's Figure 7 colour scheme.
const (
	canvasW, canvasH = 800, 600
	margin           = 40
	titleY           = 24
	nodeRadius       = 5
	investorColor    = "#1f77b4" // blue
	companyColor     = "#d62728" // red
	edgeColor        = "#999999"
)

// CommunitySVG draws one community as a force-directed graph: investors
// as blue nodes, companies as red nodes, investments as edges. Edges
// index into investors ++ companies. The layout is seeded, so equal
// arguments produce identical bytes.
func CommunitySVG(w io.Writer, title string, investors, companies []string, edges [][2]int, seed int64) error {
	n := len(investors) + len(companies)
	if err := checkEdges(edges, n); err != nil {
		return err
	}
	return renderSVG(w, title, investors, companies, edges, forceLayout(n, edges, seed))
}

// CommunityBandSVG draws the same community with the bipartite band
// layout: investors in the left column, companies in the right.
func CommunityBandSVG(w io.Writer, title string, investors, companies []string, edges [][2]int) error {
	if err := checkEdges(edges, len(investors)+len(companies)); err != nil {
		return err
	}
	return renderSVG(w, title, investors, companies, edges, bandLayout(len(investors), len(companies)))
}

// BipartiteSVG draws the first maxLeft left nodes of a bipartite graph
// (all of them when maxLeft <= 0) and the right nodes they reach, in the
// band layout, straight from the graph's CSR rows.
func BipartiteSVG(w io.Writer, title string, b *graph.FrozenBipartite, maxLeft int) error {
	nLeft := b.NumLeft()
	if maxLeft > 0 && maxLeft < nLeft {
		nLeft = maxLeft
	}
	left := make([]string, nLeft)
	var right []string
	rightIdx := map[int32]int{}
	var edges [][2]int
	for u := 0; u < nLeft; u++ {
		left[u] = b.LeftLabel(int32(u))
		for _, v := range b.Fwd(int32(u)) {
			j, ok := rightIdx[v]
			if !ok {
				j = len(right)
				rightIdx[v] = j
				right = append(right, b.RightLabel(v))
			}
			edges = append(edges, [2]int{u, nLeft + j})
		}
	}
	return renderSVG(w, title, left, right, edges, bandLayout(len(left), len(right)))
}

func checkEdges(edges [][2]int, n int) error {
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("viz: edge %v references a node outside [0,%d)", e, n)
		}
	}
	return nil
}

// renderSVG scales the layout's bounding box into the canvas and writes
// edges first, then nodes (each with a <title> tooltip naming it).
func renderSVG(w io.Writer, title string, left, right []string, edges [][2]int, pos []point) error {
	minX, maxX, minY, maxY := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	scale := func(v, lo, hi float64, extent int) float64 {
		if hi <= lo {
			return float64(extent) / 2
		}
		return margin + (v-lo)/(hi-lo)*float64(extent-2*margin)
	}
	at := func(i int) (float64, float64) {
		return scale(pos[i].X, minX, maxX, canvasW), titleY + scale(pos[i].Y, minY, maxY, canvasH-titleY)
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		canvasW, canvasH, canvasW, canvasH)
	fmt.Fprintf(bw, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")
	fmt.Fprintf(bw, `<text x="%d" y="%d" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n",
		canvasW/2, titleY, html.EscapeString(title))
	fmt.Fprintf(bw, `<g stroke="%s" stroke-width="0.8" stroke-opacity="0.6">`+"\n", edgeColor)
	for _, e := range edges {
		x1, y1 := at(e[0])
		x2, y2 := at(e[1])
		fmt.Fprintf(bw, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/>`+"\n", x1, y1, x2, y2)
	}
	fmt.Fprintln(bw, `</g>`)
	nodes := func(labels []string, offset int, color string) {
		fmt.Fprintf(bw, `<g fill="%s" stroke="white" stroke-width="1">`+"\n", color)
		for i, label := range labels {
			x, y := at(offset + i)
			fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="%d"><title>%s</title></circle>`+"\n",
				x, y, nodeRadius, html.EscapeString(label))
		}
		fmt.Fprintln(bw, `</g>`)
	}
	nodes(left, 0, investorColor)
	nodes(right, len(left), companyColor)
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}
