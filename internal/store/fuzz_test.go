package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// maxReadAllocPerByte bounds what reading n bytes of a segment or a
// manifest may allocate: 64 B per input byte plus 64 KiB, the bound the
// frozen-snapshot and index decoders hold.
const maxReadAllocPerByte = 64

// allocated runs f and returns the bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func checkReadAlloc(t *testing.T, what string, n int, grew uint64) {
	t.Helper()
	if grew > maxReadAllocPerByte*uint64(n)+64<<10 {
		t.Fatalf("reading a %d-byte %s allocated %d bytes", n, what, grew)
	}
}

// realSegment returns the bytes of a segment the writer sealed.
func realSegment(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), segmentName(0))
	sw, err := newSegmentWriter(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{`{"id":"s1","n":1}`, `{}`, `{"id":"s2","name":"x\"y"}`} {
		if err := sw.append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, err := sw.seal(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzScanSegment holds the segment reader to "a typed error or a valid
// value" on any file: the scan fails with ErrCorrupt, or it yields
// payloads that, framed again by the writer's layout, are the file byte
// for byte, and a manifest count one past them fails the scan. It never
// panics and allocates in proportion to the file.
func FuzzScanSegment(f *testing.F) {
	seg := realSegment(f)
	f.Add(seg)
	for _, n := range []int{0, 4, len(segmentMagic), len(segmentMagic) + 5, len(segmentMagic) + 8, len(segmentMagic) + 9, len(seg) - 1} {
		f.Add(seg[:n])
	}
	// Record headers claiming more bytes than the file or a record holds.
	for _, claim := range []uint32{1 << 31, maxRecordSize, maxRecordSize + 1, 3} {
		f.Add(append(binary.LittleEndian.AppendUint32([]byte(segmentMagic), claim), 0, 0, 0, 0, '{', '}'))
	}
	f.Add([]byte("CSCSEG02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segmentName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		framed := make([]byte, 0, len(data))
		var records int64
		var err error
		grew := allocated(func() {
			framed = append(framed, segmentMagic...)
			err = scanSegment(path, -1, func(p []byte) error {
				framed = binary.LittleEndian.AppendUint32(framed, uint32(len(p)))
				framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(p, castagnoli))
				framed = append(framed, p...)
				records++
				return nil
			})
		})
		checkReadAlloc(t, "segment", len(data), grew)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if !bytes.Equal(framed, data) {
			t.Fatalf("scan accepted %q, whose %d payloads frame to %q", data, records, framed)
		}
		if err := scanSegment(path, records+1, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a manifest count of %d over %d records: %v, want ErrCorrupt", records+1, records, err)
		}
	})
}

// realManifest returns the MANIFEST.json of a store holding a sharded
// namespace, a single-shard namespace and a blob.
func realManifest(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for ns, k := range map[string]int{"gen/items": 3, "a/b_c": 1} {
		w, err := s.Writer(ns, k)
		if err != nil {
			f.Fatal(err)
		}
		for _, key := range []string{"s1", "s2", "s3", "s4"} {
			if err := w.AppendRaw(key, []byte(`{"id":"`+key+`"}`)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.PutBlob("frozen/snap-1", 1, []byte("blob")); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadManifest holds the manifest reader to "a typed error or a
// valid value" on any MANIFEST.json, the legacy unsharded layout
// included: loading fails with ErrCorrupt, or it yields a manifest that
// commits and loads back unchanged, opens a store that lists, counts and
// scans every namespace without a panic (a listed segment that is not
// there is ErrSegmentMissing), and cost an allocation in proportion to
// the file.
func FuzzLoadManifest(f *testing.F) {
	m := realManifest(f)
	f.Add(m)
	for _, n := range []int{0, 1, len(m) / 2, len(m) - 1} {
		f.Add(m[:n])
	}
	for _, s := range []string{
		`{"version":1,"namespaces":{"old/ns":{"segments":[{"file":"old__ns/seg-000000.csg","records":10,"bytes":250}],"next_seq":1}}}`,
		`{"version":1,"namespaces":{"old/ns":{"segments":null,"next_seq":0}}}`,
		`{"version":1}`, `{"version":2,"namespaces":{}}`, `{"version":1,"namespaces":{"x":null}}`,
		`{"version":1,"namespaces":{"x":{"shards":[null]}}}`, `{"version":1,"namespaces":{"x":{"shards":[]}}}`,
		`{"version":1,"namespaces":{"x":{"kind":"tape"}}}`, `{"version":1,"namespaces":{"../x":{}}}`,
		`{"version":1,"namespaces":{"x":{"shards":[{"segments":[{"file":"../seg-000000.csg","records":1,"bytes":9}]}]}}}`,
		`{"version":1,"namespaces":{"x":{"shards":[{"segments":[{"file":"x/seg-000000.csg","records":-1,"bytes":9}]}]}}}`,
		`{"version":1,"namespaces":{"x":{"shards":[{"next_seq":-1}]}}}`,
		`{"version":1,"namespaces":{"x":{"kind":"blob","blob":{"file":"/etc/passwd","bytes":1}}}}`,
		`{"version":1,"namespaces":{"x":{"segments":[],"shards":[{}]}}}`,
		`{"version":1,"namespaces":{"x":{"kind":"blob","shards":[null]}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var m *manifest
		var err error
		grew := allocated(func() { m, err = loadManifest(dir) })
		checkReadAlloc(t, "manifest", len(data), grew)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if err := m.commit(dir); err != nil {
			t.Fatal(err)
		}
		again, err := loadManifest(dir)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("the loaded manifest does not commit and load back: %v\n got %+v\nwant %+v", err, again, m)
		}
		s, err := Open(dir) // sweeps too: every listed file is walked
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range s.Namespaces() {
			if _, err := s.Stats(ns); err != nil {
				t.Fatalf("Stats(%q): %v", ns, err)
			}
			if m.Namespaces[ns].Kind == KindBlob {
				continue
			}
			k, err := s.ShardCount(ns)
			if err != nil || k < 1 {
				t.Fatalf("ShardCount(%q) = %d, %v", ns, k, err)
			}
			for shard := 0; shard < k; shard++ {
				err := s.ScanShardContext(context.Background(), ns, shard, func([]byte) error { return nil })
				if err != nil && !errors.Is(err, ErrSegmentMissing) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("scan of %q shard %d: %v", ns, shard, err)
				}
			}
		}
	})
}
