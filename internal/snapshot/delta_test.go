package snapshot

import (
	"errors"
	"testing"
)

func TestDeltaMetaRoundtrip(t *testing.T) {
	e := NewEncoder()
	EncodeDeltaMeta(e, 4, 5)
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	base, target, err := DecodeDeltaMeta(d)
	if err != nil {
		t.Fatal(err)
	}
	if base != 4 || target != 5 {
		t.Fatalf("meta = %d→%d, want 4→5", base, target)
	}
}

// TestDeltaMetaRejectsBadShapes pins the framing rules: a delta must
// advance exactly one snapshot from a non-negative base, with exactly
// one value per metadata section.
func TestDeltaMetaRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name           string
		bases, targets []int64
	}{
		{"skips a snapshot", []int64{3}, []int64{5}},
		{"goes backwards", []int64{4}, []int64{4}},
		{"negative base", []int64{-1}, []int64{0}},
		{"multi-value base", []int64{1, 2}, []int64{2}},
		{"empty target", []int64{1}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEncoder()
			e.Int64s(secDeltaBase, tc.bases)
			e.Int64s(secDeltaTarget, tc.targets)
			data, err := e.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDecoder(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := DecodeDeltaMeta(d); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}

	// Missing sections surface the decoder's own error.
	d, err := NewDecoder(mustEncode(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeDeltaMeta(d); err == nil {
		t.Fatal("meta decoded from a container with no delta sections")
	}
}

func mustEncode(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Strings("unrelated", []string{"x"})
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
