package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// job or request share a trace id; parent is the index of the span that
// caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run executes the very same
// code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef addresses an open span; the zero parent for roots is noSpan.
type spanRef struct {
	t  *tracer
	id int
}

var noSpan = spanRef{id: -1}

// start opens a span under parent (noSpan for a root) in the given trace.
func (t *tracer) start(parent spanRef, trace int, name string) spanRef {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent.id, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := int64(time.Since(r.t.epoch))
	r.t.mu.Lock()
	r.t.spans[r.id].End = now
	r.t.mu.Unlock()
}

// call times f as a child span of parent.
func (t *tracer) call(parent spanRef, trace int, name string, f func() error) error {
	sp := t.start(parent, trace, name)
	err := f()
	sp.end()
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover (overlapping children are merged, and
// clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered measures the union of the intervals inside [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cursor := lo
	for _, iv := range ivs {
		start, end := iv[0], iv[1]
		if start < cursor {
			start = cursor
		}
		if end > hi {
			end = hi
		}
		if end > start {
			total += end - start
			cursor = end
		}
	}
	return total
}

// secondsByName sums span durations by name, in seconds.
func secondsByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// coveragePct reports how much of the named root spans' time the layer
// calls beneath them account for: 100 × (1 − root self time ÷ root time).
func coveragePct(spans []span, root string) float64 {
	self := selfTimes(spans)
	var total, own int64
	for i, s := range spans {
		if s.Name == root {
			total += s.End - s.Start
			own += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(total-own) / float64(total)
}

// layerOf names the layer (package) a span belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traceFile is what -trace-out receives.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Spans     []span             `json:"spans"`
	SelfNS    []int64            `json:"self_ns"`
	LayerSelf map[string]float64 `json:"layer_self_s"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if t == nil || path == "" {
		return nil
	}
	self := selfTimes(t.spans)
	byLayer := map[string]float64{}
	for i, s := range t.spans {
		byLayer[layerOf(s.Name)] += float64(self[i]) / 1e9
	}
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfNS: self, LayerSelf: byLayer})
	if err != nil {
		return fmt.Errorf("benchmark: encode trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("benchmark: write trace: %w", err)
	}
	return nil
}
