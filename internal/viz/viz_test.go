package viz

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdscope/internal/graph"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// golden compares got against testdata/<name>; -update rewrites it.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (%d vs %d bytes); rerun with -update after checking the change", name, len(got), len(want))
	}
}

// A small two-investor community sharing one company.
var (
	testInvestors = []string{"inv-a", "inv-b", "inv<c>"}
	testCompanies = []string{"co-1", "co-2", "co&3", "co-4"}
	testEdges     = [][2]int{{0, 3}, {0, 4}, {1, 4}, {1, 5}, {2, 4}, {2, 6}}
)

func TestForceLayoutDeterministicAndFinite(t *testing.T) {
	a := forceLayout(7, testEdges, 42)
	b := forceLayout(7, testEdges, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d placed at %v then %v with the same seed", i, a[i], b[i])
		}
		if !finite(a[i].X) || !finite(a[i].Y) {
			t.Fatalf("node %d has non-finite position %v", i, a[i])
		}
	}
	c := forceLayout(7, testEdges, 43)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced the same layout")
	}
	if got := forceLayout(0, nil, 1); len(got) != 0 {
		t.Fatalf("empty layout has %d points", len(got))
	}
}

// TestForceLayoutPullsNeighboursTogether checks the forces point the
// right way: in two disjoint cliques, the mean intra-clique distance is
// smaller than the mean inter-clique distance.
func TestForceLayoutPullsNeighboursTogether(t *testing.T) {
	var edges [][2]int
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, [2]int{base + i, base + j})
			}
		}
	}
	pos := forceLayout(8, edges, 7)
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			d := math.Hypot(pos[i].X-pos[j].X, pos[i].Y-pos[j].Y)
			if i/4 == j/4 {
				intra, nIntra = intra+d, nIntra+1
			} else {
				inter, nInter = inter+d, nInter+1
			}
		}
	}
	if intra/float64(nIntra) >= inter/float64(nInter) {
		t.Fatalf("mean intra-clique distance %.3f not below inter-clique %.3f", intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestBandLayoutColumns(t *testing.T) {
	pos := bandLayout(2, 3)
	if len(pos) != 5 {
		t.Fatalf("got %d points", len(pos))
	}
	for i, p := range pos {
		wantX := 0.0
		if i >= 2 {
			wantX = 1
		}
		if p.X != wantX || p.Y <= 0 || p.Y >= 1 {
			t.Fatalf("point %d at %v", i, p)
		}
	}
	if pos[0].Y >= pos[1].Y || pos[2].Y >= pos[3].Y {
		t.Fatal("columns are not in index order")
	}
}

func TestCommunitySVGGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := CommunitySVG(&buf, "Strong <community> & co", testInvestors, testCompanies, testEdges, 42); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<circle") != 7 || strings.Count(out, "<line") != len(testEdges) {
		t.Fatalf("drawing has %d nodes and %d edges", strings.Count(out, "<circle"), strings.Count(out, "<line"))
	}
	if !strings.Contains(out, investorColor) || !strings.Contains(out, companyColor) {
		t.Fatal("drawing lost the blue-investor / red-company colour scheme")
	}
	if strings.Contains(out, "inv<c>") || !strings.Contains(out, "inv&lt;c&gt;") {
		t.Fatal("labels are not XML-escaped")
	}
	golden(t, "community_force.svg", buf.Bytes())
}

func TestCommunityBandSVGGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := CommunityBandSVG(&buf, "Band", testInvestors, testCompanies, testEdges); err != nil {
		t.Fatal(err)
	}
	golden(t, "community_band.svg", buf.Bytes())
}

func TestSVGRejectsOutOfRangeEdge(t *testing.T) {
	bad := [][2]int{{0, 9}}
	if err := CommunitySVG(&bytes.Buffer{}, "x", testInvestors, testCompanies, bad, 1); err == nil {
		t.Fatal("force drawing accepted an out-of-range edge")
	}
	if err := CommunityBandSVG(&bytes.Buffer{}, "x", testInvestors, testCompanies, bad); err == nil {
		t.Fatal("band drawing accepted an out-of-range edge")
	}
}

// TestBipartiteSVGGoldenAndCap renders the test community as a graph,
// whole and with its left side capped to one investor.
func TestBipartiteSVGGoldenAndCap(t *testing.T) {
	rows := make([][]int32, len(testInvestors))
	for _, e := range testEdges {
		rows[e[0]] = append(rows[e[0]], int32(e[1]-len(testInvestors)))
	}
	b := graph.FromIndexRows(testInvestors, testCompanies, rows)
	var whole, capped bytes.Buffer
	if err := BipartiteSVG(&whole, "Overview", b, 0); err != nil {
		t.Fatal(err)
	}
	golden(t, "bipartite_view.svg", whole.Bytes())

	if err := BipartiteSVG(&capped, "Overview", b, 1); err != nil {
		t.Fatal(err)
	}
	// inv-a alone reaches co-1 and co-2.
	if n := strings.Count(capped.String(), "<circle"); n != 3 {
		t.Fatalf("capped drawing has %d nodes, want 3", n)
	}
}

var testSeries = []Series{
	{Name: "line", X: []float64{0, 1, 2, 3, 4}, Y: []float64{0, 0.25, 0.5, 0.75, 1}},
	{Name: "flat", X: []float64{0, 4}, Y: []float64{0.5, 0.5}},
}

func TestASCIIPlotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ASCIIPlot(&buf, "A plot", testSeries, 40, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// title + 10 rows + axis + x range + 2 legend lines
	if len(lines) != 15 {
		t.Fatalf("plot has %d lines:\n%s", len(lines), buf.String())
	}
	golden(t, "plot.txt", buf.Bytes())
}

func TestASCIIPlotErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		series []Series
		w, h   int
	}{
		"no series":    {nil, 40, 10},
		"ragged":       {[]Series{{Name: "r", X: []float64{1}, Y: nil}}, 40, 10},
		"tiny area":    {testSeries, 1, 10},
		"nothing real": {[]Series{{Name: "nan", X: []float64{math.NaN()}, Y: []float64{1}}}, 40, 10},
	} {
		if err := ASCIIPlot(&bytes.Buffer{}, "t", tc.series, tc.w, tc.h); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// A single point (degenerate ranges) still plots.
	if err := ASCIIPlot(&bytes.Buffer{}, "t", []Series{{Name: "p", X: []float64{2}, Y: []float64{3}}}, 10, 4); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, testSeries); err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\nline,0,0\nline,1,0.25\nline,2,0.5\nline,3,0.75\nline,4,1\nflat,0,0.5\nflat,4,0.5\n"
	if buf.String() != want {
		t.Fatalf("csv =\n%s\nwant\n%s", buf.String(), want)
	}
	if err := WriteCSV(&buf, nil); err == nil {
		t.Fatal("WriteCSV accepted no series")
	}
}
