package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
)

// Segment file layout:
//
//	header:  8 bytes magic "CSCSEG01"
//	record:  4-byte little-endian payload length
//	         4-byte little-endian CRC32 (Castagnoli) of the payload
//	         payload bytes (JSON)
//
// Segments are immutable once sealed; the manifest records their final
// record count and byte size, which readers verify on scan.

const segmentMagic = "CSCSEG01"

// maxRecordSize bounds a single record (16 MiB) to catch corrupt length
// prefixes before they trigger huge allocations.
const maxRecordSize = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports bytes on disk that fail the store's integrity
// checks: a segment's framing, CRC or record count, a blob's size or
// CRC, or a manifest that does not parse or validate.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrNotExist reports a read of a namespace the store does not hold.
// The layers above wrap it for a snapshot or table that does not exist,
// so a caller can tell a name that resolves to nothing from a failing
// store.
var ErrNotExist = errors.New("does not exist")

// ErrSegmentMissing reports that a manifest-listed segment file is absent
// on disk — the manifest and the data files disagree, typically because a
// file was deleted out from under the store. Errors wrap it with the
// missing path, so callers can both errors.Is-match and report the file.
var ErrSegmentMissing = errors.New("store: segment file missing")

// segmentWriter appends framed records to a file.
type segmentWriter struct {
	f       *os.File
	w       *bufio.Writer
	path    string
	records int64
	bytes   int64
}

func newSegmentWriter(path string) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(segmentMagic); err != nil {
		f.Close()
		return nil, err
	}
	return &segmentWriter{f: f, w: w, path: path, bytes: int64(len(segmentMagic))}, nil
}

func (sw *segmentWriter) append(payload []byte) error {
	if len(payload) > maxRecordSize {
		return fmt.Errorf("store: record of %d bytes exceeds limit %d", len(payload), maxRecordSize)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := sw.w.Write(payload); err != nil {
		return err
	}
	sw.records++
	sw.bytes += int64(len(hdr)) + int64(len(payload))
	return nil
}

// seal flushes, fsyncs and closes the segment, returning its final stats.
func (sw *segmentWriter) seal() (records, size int64, err error) {
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return 0, 0, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.f.Close()
		return 0, 0, err
	}
	if err := sw.f.Close(); err != nil {
		return 0, 0, err
	}
	return sw.records, sw.bytes, nil
}

// abort closes and removes a partially written segment.
func (sw *segmentWriter) abort() {
	sw.f.Close()
	os.Remove(sw.path)
}

// scanSegment reads every record of a sealed segment, verifying framing and
// CRCs, and passes each payload to fn. The payload slice is reused between
// calls; fn must copy it if retained.
func scanSegment(path string, expectRecords int64, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrSegmentMissing, path)
		}
		return fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat segment: %w", err)
	}
	// left counts the bytes not yet read: a length prefix claiming more
	// is a truncated record, found before its buffer is allocated.
	left := st.Size()
	r := bufio.NewReaderSize(f, int(min(left, 1<<16)))
	var magic [len(segmentMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	if string(magic[:]) != segmentMagic {
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, path, magic)
	}
	left -= int64(len(magic))
	var hdr [8]byte
	var buf []byte
	var n int64
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("%w: %s: truncated record header after %d records", ErrCorrupt, path, n)
		}
		left -= int64(len(hdr))
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordSize {
			return fmt.Errorf("%w: %s: record %d claims %d bytes", ErrCorrupt, path, n, length)
		}
		if int64(length) > left {
			return fmt.Errorf("%w: %s: truncated record %d", ErrCorrupt, path, n)
		}
		left -= int64(length)
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("%w: %s: truncated record %d", ErrCorrupt, path, n)
		}
		if crc32.Checksum(buf, castagnoli) != sum {
			return fmt.Errorf("%w: %s: CRC mismatch at record %d", ErrCorrupt, path, n)
		}
		if err := fn(buf); err != nil {
			return err
		}
		n++
	}
	if expectRecords >= 0 && n != expectRecords {
		return fmt.Errorf("%w: %s: manifest expects %d records, found %d", ErrCorrupt, path, expectRecords, n)
	}
	return nil
}
