package main

import (
	"math"
	"testing"
)

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "store.a", Parent: 0, Start: 10, End: 30},  // 20 covered
		{Name: "store.b", Parent: 0, Start: 25, End: 50},  // overlaps a: union 10..50 = 40
		{Name: "core.c", Parent: 0, Start: 90, End: 120},  // clipped to the parent: 10
		{Name: "core.d", Parent: 2, Start: 30, End: 40},   // grandchild: only b loses it
		{Name: "other", Parent: -1, Start: 200, End: 260}, // second root, no children
	}
	want := []int64{100 - 50, 20, 25 - 10, 30, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if got := coveragePct(spans, "job"); math.Abs(got-50) > 1e-9 {
		t.Errorf("coverage of job = %g%%, want 50%%", got)
	}
	by := secondsByName(spans)
	if math.Abs(by["store.a"]-20e-9) > 1e-15 {
		t.Errorf("seconds by name: store.a = %g", by["store.a"])
	}
	if layerOf("community.CoDA.Detect") != "community" {
		t.Errorf("layerOf = %q", layerOf("community.CoDA.Detect"))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start(noSpan, 0, "x")
	sp.end()
	ran := false
	if err := tr.call(sp, 0, "y", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil tracer call: ran=%v err=%v", ran, err)
	}
	if err := tr.write("", "w", 1); err != nil {
		t.Fatal(err)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start(noSpan, 7, "job")
	if err := tr.call(root, 7, "store.a", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
