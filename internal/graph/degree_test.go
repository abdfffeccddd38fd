package graph

import (
	"math"
	"reflect"
	"testing"
)

func TestLeftDegreeShares(t *testing.T) {
	// Degrees: i1=4, i2=2, i3=1, i4=1; total edges = 8.
	b, err := FromRows([]AdjacencyRow{
		{Left: "i1", Rights: []string{"c1", "c2", "c3", "c4"}},
		{Left: "i2", Rights: []string{"c1", "c5"}},
		{Left: "i3", Rights: []string{"c6"}},
		{Left: "i4", Rights: []string{"c6"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	shares := LeftDegreeShares(b, []int{1, 2, 4})
	if len(shares) != 3 {
		t.Fatalf("rows = %d", len(shares))
	}
	check := func(i int, nodeFrac, edgeFrac float64) {
		t.Helper()
		if math.Abs(shares[i].NodeFraction-nodeFrac) > 1e-12 {
			t.Errorf("row %d node fraction %g, want %g", i, shares[i].NodeFraction, nodeFrac)
		}
		if math.Abs(shares[i].EdgeFraction-edgeFrac) > 1e-12 {
			t.Errorf("row %d edge fraction %g, want %g", i, shares[i].EdgeFraction, edgeFrac)
		}
	}
	check(0, 1.0, 1.0)    // >=1: everyone
	check(1, 0.5, 6.0/8)  // >=2: i1,i2 holding 6 edges
	check(2, 0.25, 4.0/8) // >=4: i1 holding 4 edges
	if shares[0].MinDegree != 1 || shares[2].MinDegree != 4 {
		t.Error("thresholds not preserved")
	}
}

func TestLeftDegreeSharesEmpty(t *testing.T) {
	shares := LeftDegreeShares(FromIndexRows(nil, nil, nil), []int{3})
	if shares[0].NodeFraction != 0 || shares[0].EdgeFraction != 0 {
		t.Error("empty graph should yield zero fractions")
	}
}

func TestProjectLeft(t *testing.T) {
	b := paperExampleStrong()
	p := ProjectLeft(b, 1)
	// (i1,i2)=2, (i1,i3)=2, (i2,i3)=1.
	edges := edgesOf(p)
	if len(edges) != 3 || p.NumEdges() != 3 {
		t.Fatalf("projection edges = %v", edges)
	}
	total := 0.0
	for _, e := range edges {
		total += e.Weight
	}
	if total != 5 {
		t.Errorf("total weight = %g, want 5", total)
	}
	checkRows(t, p)
	strong := ProjectLeft(b, 2)
	if strong.NumEdges() != 2 {
		t.Errorf("minShared=2 edges = %v", edgesOf(strong))
	}
	// minShared < 1 is clamped to 1.
	if got := ProjectLeft(b, 0); got.NumEdges() != 3 {
		t.Errorf("minShared=0 edges = %d, want 3", got.NumEdges())
	}
}

func TestProjectLeftDeterministic(t *testing.T) {
	b := paperExampleStrong()
	if !reflect.DeepEqual(ProjectLeft(b, 1), ProjectLeft(b, 1)) {
		t.Fatal("projection not deterministic")
	}
}
