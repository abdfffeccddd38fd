package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"crowdscope/internal/graph"
)

// FuzzDecodeBipartite: NewDecoder + DecodeBipartite over any bytes return
// either an error wrapping ErrCorrupt (an unknown format version is the
// one other refusal) or a FrozenBipartite on which every row, label,
// index, degree and HasEdge call stays in range. Never a panic. Each
// input is decoded as given, which exercises framing and CRCs, and again
// with every complete section's CRC recomputed, so mutations also reach
// the column and CSR checks behind the checksums.
func FuzzDecodeBipartite(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeBipartite(t, data)
		checkDecodeBipartite(t, reseal(data))
	})
}

// fuzzSeeds returns encoded graphs (sorted, unsorted, empty) plus the
// corruptions the unit tests exercise: a flipped byte, truncation,
// trailing bytes, bad magic, a future version, an out-of-range target, a
// fwd/rev edge-count mismatch and counts that overflow their payload.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	encode := func(fill func(e *Encoder)) []byte {
		e := NewEncoder()
		fill(e)
		data, err := e.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	graphOf := func(sorted bool, edges ...[2]string) []byte {
		b := graph.NewBipartite(4, 4)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		if sorted {
			b.SortAdjacency()
		}
		return encode(func(e *Encoder) { EncodeBipartite(e, "g", b) })
	}
	edges := [][2]string{{"inv-a", "co-2"}, {"inv-a", "co-1"}, {"inv-b", "co-3"}, {"inv-b", "co-1"}, {"inv-c", "co-3"}}
	good := graphOf(true, edges...)
	seeds := [][]byte{good, graphOf(false, edges...), graphOf(true)}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[len(magic):], FormatVersion+1)
	seeds = append(seeds, flipped, good[:len(good)-1], append(append([]byte(nil), good...), 0xAA), badMagic, future)

	csr := func(e *Encoder, fwdTargets []int32, revOffsets []int64, revTargets []int32) {
		e.Strings("g.left", []string{"a", "b"})
		e.Strings("g.right", []string{"x"})
		e.Int64s("g.fwd.offsets", []int64{0, 1, int64(len(fwdTargets))})
		e.Int32s("g.fwd.targets", fwdTargets)
		e.Int64s("g.rev.offsets", revOffsets)
		e.Int32s("g.rev.targets", revTargets)
	}
	seeds = append(seeds,
		encode(func(e *Encoder) { csr(e, []int32{0, 5}, []int64{0, 2}, []int32{0, 1}) }),
		encode(func(e *Encoder) { csr(e, []int32{0, 0}, []int64{0, 1}, []int32{0}) }),
		encode(func(e *Encoder) { e.add("g.left", kindStrings, math.MaxUint64, nil) }),
		encode(func(e *Encoder) { e.add("g.fwd.offsets", kindInt64, 1<<61, nil) }),
		encode(func(e *Encoder) { e.add("g.fwd.targets", kindInt32, 1<<62, nil) }),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte(magic), FormatVersion), 0x0FFFFFFF),
	)
	return seeds
}

// checkDecodeBipartite decodes data and checks the fuzz invariant.
func checkDecodeBipartite(t *testing.T, data []byte) {
	t.Helper()
	d, err := NewDecoder(data)
	var fb *graph.FrozenBipartite
	if err == nil {
		fb, err = DecodeBipartite(d, "g")
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !unknownVersion(data) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		return
	}
	fwdEdges := 0
	for u := int32(0); int(u) < fb.NumLeft(); u++ {
		row := fb.Fwd(u)
		if len(row) != fb.OutDegree(u) {
			t.Fatalf("left %d: row length %d, out-degree %d", u, len(row), fb.OutDegree(u))
		}
		fwdEdges += len(row)
		label := fb.LeftLabel(u)
		lu, ok := fb.LeftIndex(label)
		if !ok || lu < 0 || int(lu) >= fb.NumLeft() {
			t.Fatalf("LeftIndex(%q) = %d, %v", label, lu, ok)
		}
		for _, r := range row {
			if r < 0 || int(r) >= fb.NumRight() {
				t.Fatalf("left %d: target %d outside [0,%d)", u, r, fb.NumRight())
			}
			right := fb.RightLabel(r)
			has := fb.HasEdge(label, right)
			if rv, _ := fb.RightIndex(right); lu == u && rv == r && !has {
				t.Fatalf("HasEdge(%q, %q) misses an edge of row %d", label, right, u)
			}
		}
	}
	revEdges := 0
	for v := int32(0); int(v) < fb.NumRight(); v++ {
		row := fb.Rev(v)
		if len(row) != fb.InDegree(v) {
			t.Fatalf("right %d: row length %d, in-degree %d", v, len(row), fb.InDegree(v))
		}
		revEdges += len(row)
		label := fb.RightLabel(v)
		if rv, ok := fb.RightIndex(label); !ok || rv < 0 || int(rv) >= fb.NumRight() {
			t.Fatalf("RightIndex(%q) = %d, %v", label, rv, ok)
		}
		for _, u := range row {
			if u < 0 || int(u) >= fb.NumLeft() {
				t.Fatalf("right %d: target %d outside [0,%d)", v, u, fb.NumLeft())
			}
		}
	}
	if fwdEdges != fb.NumEdges() || revEdges != fb.NumEdges() {
		t.Fatalf("edge totals fwd=%d rev=%d, NumEdges=%d", fwdEdges, revEdges, fb.NumEdges())
	}
}

// unknownVersion reports whether data carries the magic and a format
// version this reader does not know — the one non-ErrCorrupt refusal.
func unknownVersion(data []byte) bool {
	return len(data) >= len(magic)+8 && string(data[:len(magic)]) == magic &&
		binary.LittleEndian.Uint32(data[len(magic):]) != FormatVersion
}

// reseal returns a copy of data with the CRC of every complete section
// frame recomputed; it stops at the first frame that does not fit.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	pos := len(magic) + 8
	for pos+2 <= len(out) {
		nameLen := int(binary.LittleEndian.Uint16(out[pos:]))
		hdr, start := pos+2+nameLen, pos+minSectionHeader+nameLen
		if start > len(out) {
			break
		}
		payloadLen := binary.LittleEndian.Uint64(out[hdr+9:])
		if uint64(len(out)-start) < payloadLen {
			break
		}
		end := start + int(payloadLen)
		sec := section{
			name:    string(out[pos+2 : hdr]),
			kind:    out[hdr],
			count:   binary.LittleEndian.Uint64(out[hdr+1:]),
			payload: out[start:end],
		}
		binary.LittleEndian.PutUint32(out[hdr+17:], sec.checksum())
		pos = end
	}
	return out
}
