package lint

import "testing"

func TestBinLayoutCatchesReflectiveEncodingAndPositionalLiterals(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/snapshot/s.go": `package snapshot

import (
	"bytes"
	"encoding/binary"
)

type header struct {
	a uint32
	b uint32
}

func encode() ([]byte, error) {
	var buf bytes.Buffer
	h := header{1, 2}
	err := binary.Write(&buf, binary.LittleEndian, h)
	return buf.Bytes(), err
}
`,
	})
	got := findings(t, m, AnalyzerBinLayout)
	wantFindings(t, got,
		"internal/snapshot/s.go:15:[binlayout]",
		"internal/snapshot/s.go:16:[binlayout]")
}

func TestBinLayoutRequiresDocumentedConstants(t *testing.T) {
	files := map[string]string{
		"internal/store/s.go": `package store

const MagicV2 = "CSSEG02"

const internalTuning = 4
`,
	}
	m := writeModule(t, files)
	wantFindings(t, findings(t, m, AnalyzerBinLayout), "internal/store/s.go:3:[binlayout]")

	files[FormatDocFile] = "Segments open with the `MagicV2` marker.\n"
	m = writeModule(t, files)
	wantFindings(t, findings(t, m, AnalyzerBinLayout))
}

func TestBinLayoutIgnoresNonWirePackagesAndKeyedLiterals(t *testing.T) {
	m := writeModule(t, map[string]string{
		// metrics is not a wire package: reflective encoding is its business.
		"internal/metrics/m.go": `package metrics

import (
	"bytes"
	"encoding/binary"
)

func dump(v uint32) error {
	var buf bytes.Buffer
	return binary.Write(&buf, binary.LittleEndian, v)
}
`,
		// Keyed literals and explicit fixed-width puts are the sanctioned idiom.
		"internal/snapshot/s.go": `package snapshot

import "encoding/binary"

type header struct {
	a uint32
	b uint32
}

func encode() []byte {
	h := header{a: 1, b: 2}
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:], h.a)
	binary.LittleEndian.PutUint32(out[4:], h.b)
	return out
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerBinLayout))
}

func TestBinLayoutSuppressionWithReason(t *testing.T) {
	m := writeModule(t, map[string]string{
		"internal/snapshot/s.go": `package snapshot

import (
	"bytes"
	"encoding/binary"
)

func debugDump(v uint32) []byte {
	var buf bytes.Buffer
	//lint:ignore binlayout debug trace only; never persisted or read back
	_ = binary.Write(&buf, binary.LittleEndian, v)
	return buf.Bytes()
}
`,
	})
	wantFindings(t, findings(t, m, AnalyzerBinLayout))
}
