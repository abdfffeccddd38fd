package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// FormatVersion is the current frozen-snapshot format. Stores record it
// in the manifest next to the blob checksum.
const FormatVersion = 1

const magic = "CSFROZ01"

// Column kinds.
const (
	kindInt64   = 1
	kindInt32   = 2
	kindUint8   = 3
	kindStrings = 4
)

// minSectionHeader is the smallest possible section frame: name length,
// kind, count, payload length and CRC around an empty name and payload.
const minSectionHeader = 2 + 1 + 8 + 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an artifact that fails an integrity, framing or
// schema check while decoding (a missing or mistyped section included).
// The one other refusal is a format version the reader does not know.
var ErrCorrupt = errors.New("snapshot: corrupt artifact")

// Encoder accumulates named typed columns and serializes them into one
// self-describing artifact. Column names must be unique; Bytes reports
// the first error encountered.
type Encoder struct {
	sections []section
	names    map[string]bool
	err      error
}

type section struct {
	name    string
	kind    uint8
	count   uint64
	payload []byte
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder {
	return &Encoder{names: map[string]bool{}}
}

func (e *Encoder) add(name string, kind uint8, count uint64, payload []byte) {
	if e.err != nil {
		return
	}
	if name == "" || len(name) > math.MaxUint16 {
		e.err = fmt.Errorf("snapshot: invalid section name %q", name)
		return
	}
	if e.names[name] {
		e.err = fmt.Errorf("snapshot: duplicate section %q", name)
		return
	}
	e.names[name] = true
	e.sections = append(e.sections, section{name: name, kind: kind, count: count, payload: payload})
}

// Int64s adds an int64 column.
func (e *Encoder) Int64s(name string, vals []int64) {
	payload := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(v))
	}
	e.add(name, kindInt64, uint64(len(vals)), payload)
}

// Int32s adds an int32 column.
func (e *Encoder) Int32s(name string, vals []int32) {
	payload := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(payload[4*i:], uint32(v))
	}
	e.add(name, kindInt32, uint64(len(vals)), payload)
}

// Uint8s adds a uint8 column.
func (e *Encoder) Uint8s(name string, vals []uint8) {
	payload := make([]byte, len(vals))
	copy(payload, vals)
	e.add(name, kindUint8, uint64(len(vals)), payload)
}

// Strings adds a string-table column: (count+1) int64 offsets followed by
// the concatenated bytes.
func (e *Encoder) Strings(name string, vals []string) {
	var total int
	for _, s := range vals {
		total += len(s)
	}
	payload := make([]byte, 8*(len(vals)+1)+total)
	off := int64(0)
	for i, s := range vals {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(off))
		off += int64(len(s))
	}
	binary.LittleEndian.PutUint64(payload[8*len(vals):], uint64(off))
	pos := 8 * (len(vals) + 1)
	for _, s := range vals {
		pos += copy(payload[pos:], s)
	}
	e.add(name, kindStrings, uint64(len(vals)), payload)
}

// Bytes serializes every added column into the final artifact.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	size := len(magic) + 8
	for _, s := range e.sections {
		size += 2 + len(s.name) + 1 + 8 + 8 + 4 + len(s.payload)
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(e.sections)))
	for _, s := range e.sections {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s.name)))
		out = append(out, s.name...)
		out = append(out, s.kind)
		out = binary.LittleEndian.AppendUint64(out, s.count)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, s.checksum())
		out = append(out, s.payload...)
	}
	return out, nil
}

// checksum covers the section's identity (name, kind, count) and its
// payload, so a flipped byte anywhere in the section — header or data —
// fails the CRC rather than silently renaming or re-typing a column.
func (s section) checksum() uint32 {
	sum := crc32.Checksum([]byte(s.name), castagnoli)
	var hdr [9]byte
	hdr[0] = s.kind
	binary.LittleEndian.PutUint64(hdr[1:], s.count)
	sum = crc32.Update(sum, castagnoli, hdr[:])
	return crc32.Update(sum, castagnoli, s.payload)
}

// Decoder parses a serialized artifact and hands out typed columns by
// name. NewDecoder verifies the magic, version, framing and every
// section CRC up front, so any flipped byte or truncation fails loudly
// before a single column is read.
type Decoder struct {
	sections map[string]section
}

// NewDecoder parses and integrity-checks the artifact.
func NewDecoder(data []byte) (*Decoder, error) {
	if len(data) < len(magic)+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	pos := len(magic)
	version := binary.LittleEndian.Uint32(data[pos:])
	if version != FormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (reader supports %d)", version, FormatVersion)
	}
	nSec := binary.LittleEndian.Uint32(data[pos+4:])
	pos += 8
	// The section count is untrusted until the frames are walked: size
	// the map by what the remaining bytes could hold, not by the claim.
	d := &Decoder{sections: make(map[string]section, min(int(nSec), (len(data)-pos)/minSectionHeader))}
	for i := uint32(0); i < nSec; i++ {
		if pos+2 > len(data) {
			return nil, fmt.Errorf("%w: truncated section header at byte %d", ErrCorrupt, pos)
		}
		nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
		pos += 2
		if pos+nameLen+1+8+8+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated section header at byte %d", ErrCorrupt, pos)
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		kind := data[pos]
		pos++
		count := binary.LittleEndian.Uint64(data[pos:])
		payloadLen := binary.LittleEndian.Uint64(data[pos+8:])
		sum := binary.LittleEndian.Uint32(data[pos+16:])
		pos += 20
		if uint64(len(data)-pos) < payloadLen {
			return nil, fmt.Errorf("%w: section %q claims %d payload bytes, %d remain",
				ErrCorrupt, name, payloadLen, len(data)-pos)
		}
		payload := data[pos : pos+int(payloadLen)]
		pos += int(payloadLen)
		sec := section{name: name, kind: kind, count: count, payload: payload}
		if sec.checksum() != sum {
			return nil, fmt.Errorf("%w: CRC mismatch in section %q", ErrCorrupt, name)
		}
		if _, dup := d.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		d.sections[name] = sec
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrCorrupt, len(data)-pos)
	}
	return d, nil
}

func (d *Decoder) section(name string, kind uint8) (section, error) {
	s, ok := d.sections[name]
	if !ok {
		return section{}, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	if s.kind != kind {
		return section{}, fmt.Errorf("%w: section %q has kind %d, want %d", ErrCorrupt, name, s.kind, kind)
	}
	return s, nil
}

// Int64s returns the named int64 column.
func (d *Decoder) Int64s(name string) ([]int64, error) {
	s, err := d.section(name, kindInt64)
	if err != nil {
		return nil, err
	}
	if len(s.payload)%8 != 0 || uint64(len(s.payload)/8) != s.count {
		return nil, fmt.Errorf("%w: section %q: %d payload bytes for %d int64s", ErrCorrupt, name, len(s.payload), s.count)
	}
	out := make([]int64, s.count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(s.payload[8*i:]))
	}
	return out, nil
}

// Int32s returns the named int32 column.
func (d *Decoder) Int32s(name string) ([]int32, error) {
	s, err := d.section(name, kindInt32)
	if err != nil {
		return nil, err
	}
	if len(s.payload)%4 != 0 || uint64(len(s.payload)/4) != s.count {
		return nil, fmt.Errorf("%w: section %q: %d payload bytes for %d int32s", ErrCorrupt, name, len(s.payload), s.count)
	}
	out := make([]int32, s.count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(s.payload[4*i:]))
	}
	return out, nil
}

// Uint8s returns the named uint8 column. The slice aliases the decoded
// buffer; callers must not modify it.
func (d *Decoder) Uint8s(name string) ([]uint8, error) {
	s, err := d.section(name, kindUint8)
	if err != nil {
		return nil, err
	}
	if uint64(len(s.payload)) != s.count {
		return nil, fmt.Errorf("%w: section %q: %d payload bytes for %d uint8s", ErrCorrupt, name, len(s.payload), s.count)
	}
	return s.payload, nil
}

// Strings returns the named string-table column. The strings share one
// copy of the column's bytes, so any one of them keeps all of it alive.
func (d *Decoder) Strings(name string) ([]string, error) {
	s, err := d.section(name, kindStrings)
	if err != nil {
		return nil, err
	}
	// Compare by division: 8*(count+1) wraps for a hostile count.
	if s.count >= uint64(len(s.payload)/8) {
		return nil, fmt.Errorf("%w: section %q: %d payload bytes cannot hold the offsets of %d strings", ErrCorrupt, name, len(s.payload), s.count)
	}
	header := 8 * (s.count + 1)
	blob := string(s.payload[header:]) // one allocation the strings share
	out := make([]string, s.count)
	prev := int64(0)
	for i := range out {
		lo := int64(binary.LittleEndian.Uint64(s.payload[8*i:]))
		hi := int64(binary.LittleEndian.Uint64(s.payload[8*(i+1):]))
		if lo != prev || hi < lo || hi > int64(len(blob)) {
			return nil, fmt.Errorf("%w: section %q: invalid string offsets [%d,%d)", ErrCorrupt, name, lo, hi)
		}
		out[i] = blob[lo:hi]
		prev = hi
	}
	if prev != int64(len(blob)) {
		return nil, fmt.Errorf("%w: section %q: %d unclaimed string bytes", ErrCorrupt, name, int64(len(blob))-prev)
	}
	return out, nil
}
