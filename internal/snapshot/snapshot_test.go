package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func encodeAll(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Int64s("nums64", []int64{-1, 0, 1, 1 << 40})
	e.Int32s("nums32", []int32{-7, 0, 42})
	e.Uint8s("flags", []uint8{0, 1, 255})
	e.Strings("labels", []string{"", "alpha", "β-utf8", "alpha"})
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d, err := NewDecoder(encodeAll(t))
	if err != nil {
		t.Fatal(err)
	}
	n64, err := d.Int64s("nums64")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n64, []int64{-1, 0, 1, 1 << 40}) {
		t.Fatalf("Int64s = %v", n64)
	}
	n32, err := d.Int32s("nums32")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n32, []int32{-7, 0, 42}) {
		t.Fatalf("Int32s = %v", n32)
	}
	flags, err := d.Uint8s("flags")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flags, []uint8{0, 1, 255}) {
		t.Fatalf("Uint8s = %v", flags)
	}
	labels, err := d.Strings("labels")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []string{"", "alpha", "β-utf8", "alpha"}) {
		t.Fatalf("Strings = %v", labels)
	}
	if _, err := d.Int64s("missing"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: err = %v, want ErrCorrupt", err)
	}
	if _, err := d.Int32s("nums64"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	e := NewEncoder()
	e.Int64s("dup", []int64{1})
	e.Int32s("dup", []int32{2})
	if _, err := e.Bytes(); err == nil {
		t.Fatal("duplicate section must fail encoding")
	}
}

func TestFlippedByteFailsCRC(t *testing.T) {
	base := encodeAll(t)
	// Flip every payload byte position in turn is overkill; pick several
	// spread across sections, skipping the header (magic/version errors
	// are tested separately).
	for _, off := range []int{20, len(base) / 2, len(base) - 3} {
		data := append([]byte(nil), base...)
		data[off] ^= 0x40
		_, err := NewDecoder(data)
		if err == nil {
			t.Fatalf("flipped byte at %d decoded cleanly", off)
		}
	}
	// A payload flip specifically must report ErrCorrupt.
	data := append([]byte(nil), base...)
	data[len(data)-1] ^= 0x01 // last byte of the last section's payload
	if _, err := NewDecoder(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: err = %v, want ErrCorrupt", err)
	}
}

func TestTruncationFailsFraming(t *testing.T) {
	base := encodeAll(t)
	for _, n := range []int{0, 4, len(base) / 3, len(base) - 1} {
		if _, err := NewDecoder(base[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := NewDecoder(base[:len(base)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncated artifact must report ErrCorrupt")
	}
	// Trailing garbage is as corrupt as missing bytes.
	if _, err := NewDecoder(append(append([]byte(nil), base...), 0xAA)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing bytes must report ErrCorrupt")
	}
}

func TestBadMagicAndVersionRejected(t *testing.T) {
	base := encodeAll(t)
	bad := append([]byte(nil), base...)
	bad[0] = 'X'
	if _, err := NewDecoder(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v", err)
	}
	future := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(future[len(magic):], FormatVersion+1)
	_, err := NewDecoder(future)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}
}

// TestDecoderRejectsOverflowingCounts: a CRC-valid section whose element
// count overflows its byte size fails with ErrCorrupt instead of panicking
// in makeslice, and a header claiming more sections than its bytes can
// frame sizes nothing by that claim.
func TestDecoderRejectsOverflowingCounts(t *testing.T) {
	cases := []struct {
		name  string
		kind  uint8
		count uint64
		read  func(*Decoder) error
	}{
		{"int64s", kindInt64, 1 << 61, func(d *Decoder) error { _, err := d.Int64s("col"); return err }},
		{"int32s", kindInt32, 1 << 62, func(d *Decoder) error { _, err := d.Int32s("col"); return err }},
		{"strings", kindStrings, math.MaxUint64, func(d *Decoder) error { _, err := d.Strings("col"); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEncoder()
			e.add("col", c.kind, c.count, nil)
			data, err := e.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDecoder(data)
			if err != nil {
				t.Fatalf("framing and CRC are valid, yet NewDecoder failed: %v", err)
			}
			if err := c.read(d); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("count %d over an empty payload: err = %v, want ErrCorrupt", c.count, err)
			}
		})
	}
	t.Run("section count", func(t *testing.T) {
		data := binary.LittleEndian.AppendUint32([]byte(magic), FormatVersion)
		data = binary.LittleEndian.AppendUint32(data, 0x0FFFFFFF)
		data = append(data, 0, 0, 0, 0)
		if _, err := NewDecoder(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}
