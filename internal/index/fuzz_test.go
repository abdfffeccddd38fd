package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"crowdscope/internal/snapshot"
)

// unorderedRowsBlob is a 238-byte index blob whose one table claims
// 2^27 rows and carries a boolean key but no ordering: nothing in it
// vouches for the row count, and complementing that key once took
// 512 MiB.
func unorderedRowsBlob(t testing.TB) []byte {
	t.Helper()
	e := snapshot.NewEncoder()
	e.Strings(SectionPrefix+"tables", []string{"t"})
	e.Int64s(SectionPrefix+"t.rows", []int64{1 << 27})
	e.Strings(SectionPrefix+"t.bools", []string{"hot"})
	e.Int32s(SectionPrefix+"t.bool.hot", nil)
	e.Strings(SectionPrefix+"t.ints", nil)
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// keyedBlob is an index blob with one table "t" of the given row count,
// one ordering "n" over it, and boolKeys listed as the table's boolean
// keys in that order (a repeated key gets one postings section), each
// true on no row.
func keyedBlob(t testing.TB, rows int, boolKeys []string) []byte {
	t.Helper()
	e := snapshot.NewEncoder()
	e.Strings(SectionPrefix+"tables", []string{"t"})
	e.Int64s(SectionPrefix+"t.rows", []int64{int64(rows)})
	e.Strings(SectionPrefix+"t.bools", boolKeys)
	written := map[string]bool{}
	for _, key := range boolKeys {
		if !written[key] {
			e.Int32s(SectionPrefix+"t.bool."+key, nil)
			written[key] = true
		}
	}
	perm := make([]int32, rows)
	vals := make([]int64, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	e.Strings(SectionPrefix+"t.ints", []string{"n"})
	e.Int32s(SectionPrefix+"t.order.n.perm", perm)
	e.Int64s(SectionPrefix+"t.order.n.vals", vals)
	data, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// repeatedKeyBlob names one boolean key 50 times over a 640-row table:
// each repeat once cost its own bitmap.
func repeatedKeyBlob(t testing.TB) []byte {
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = "hot"
	}
	return keyedBlob(t, 640, keys)
}

// manyKeysBlob carries 200 distinct boolean keys, none true, over a
// 6,400-row ordering: 160,000 bytes of bitmaps from a blob of about
// 90,000.
func manyKeysBlob(t testing.TB) []byte {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	return keyedBlob(t, 6400, keys)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal returns a copy of data with the CRC of every complete section
// frame recomputed (CRC32C over name ++ kind ++ count ++ payload, as
// internal/snapshot frames it); it stops at the first frame that does
// not fit.
func reseal(data []byte) []byte {
	const headerLen = 8 + 4 + 4 // magic, version, section count
	out := slices.Clone(data)
	for pos := headerLen; pos+2 <= len(out); {
		nameLen := int(binary.LittleEndian.Uint16(out[pos:]))
		hdr, start := pos+2+nameLen, pos+2+nameLen+1+8+8+4
		if start > len(out) {
			break
		}
		payloadLen := binary.LittleEndian.Uint64(out[hdr+9:])
		if uint64(len(out)-start) < payloadLen {
			break
		}
		end := start + int(payloadLen)
		sum := crc32.Checksum(out[pos+2:hdr+9], castagnoli)
		sum = crc32.Update(sum, castagnoli, out[start:end])
		binary.LittleEndian.PutUint32(out[hdr+17:], sum)
		pos = end
	}
	return out
}

// unknownVersion reports whether data carries the container magic and a
// format version this reader does not know — the one refusal that is
// neither ErrCorrupt nor ErrInvalid.
func unknownVersion(data []byte) bool {
	const magic = "CSFROZ01"
	return len(data) >= len(magic)+8 && string(data[:len(magic)]) == magic &&
		binary.LittleEndian.Uint32(data[len(magic):]) != snapshot.FormatVersion
}

// columnsOf reads back the columns a decoded table index holds: each
// boolean key's rows below the row count, each ordering's values put
// back at their rows.
func columnsOf(ti *TableIndex) Table {
	tab := Table{Name: ti.name, Rows: ti.rows, Bools: map[string][]bool{}, Ints: map[string][]int64{}}
	for key, b := range ti.bools {
		col := make([]bool, ti.rows)
		for r := range col {
			col[r] = b.has(int32(r))
		}
		tab.Bools[key] = col
	}
	for key, o := range ti.orders {
		col := make([]int64, ti.rows)
		for i, r := range o.perm {
			col[r] = o.vals[i]
		}
		tab.Ints[key] = col
	}
	return tab
}

// sameIndex reports whether two table indexes hold the same sets and
// orderings.
func sameIndex(a, b *TableIndex) bool {
	if a.name != b.name || a.rows != b.rows || len(a.bools) != len(b.bools) || len(a.orders) != len(b.orders) {
		return false
	}
	for key, bm := range a.bools {
		if !slices.Equal(bm, b.bools[key]) {
			return false
		}
	}
	for key, o := range a.orders {
		p, ok := b.orders[key]
		if !ok || !slices.Equal(o.perm, p.perm) || !slices.Equal(o.vals, p.vals) {
			return false
		}
	}
	return true
}

// FuzzDecodeIndex: Decode over any bytes returns an error wrapping
// snapshot.ErrCorrupt or ErrInvalid (an unknown container version is
// the one other refusal), or tables that are exactly what BuildTable
// makes of the columns they hold — bitmaps sized to the row count with
// no bit past it — and on which every bitmap kernel matches brute
// force. Never a panic, and never an allocation out of proportion to
// the input. Each input is decoded as given, which exercises
// framing and CRCs, and again with every complete section's CRC
// recomputed, so mutations also reach the structural checks.
func FuzzDecodeIndex(f *testing.F) {
	tab := Table{
		Name:  "things",
		Rows:  6,
		Bools: map[string][]bool{"hot": {true, false, true, false, false, true}},
		Ints:  map[string][]int64{"score": {5, 3, 5, 9, 1, 3}},
	}
	ti, err := BuildTable(tab)
	if err != nil {
		f.Fatal(err)
	}
	good, err := Encode([]*TableIndex{ti})
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(good); n += 7 {
		f.Add(good[:n])
	}
	f.Add(good)
	f.Add(unorderedRowsBlob(f))
	f.Add(repeatedKeyBlob(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeIndex(t, data)
		checkDecodeIndex(t, reseal(data))
	})
}

// maxDecodeAllocPerByte bounds what Decode may allocate per input
// byte, plus a fixed 64 KiB: every ordering entry, string and bitmap
// word it builds is paid for by input bytes.
const maxDecodeAllocPerByte = 64

// checkDecodeIndex decodes data and checks the fuzz invariant.
func checkDecodeIndex(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tables, err := Decode(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxDecodeAllocPerByte*uint64(len(data))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
	if err != nil {
		if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, ErrInvalid) && !unknownVersion(data) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	for name, got := range tables {
		if got.name != name {
			t.Fatalf("table %q decoded under %q", got.name, name)
		}
		for key, b := range got.bools {
			if !tailClean(b, got.rows) {
				t.Fatalf("table %q key %q: %d words with bits past row %d", name, key, len(b), got.rows)
			}
		}
		cols := columnsOf(got)
		want, err := BuildTable(cols)
		if err != nil {
			t.Fatalf("table %q: decoded columns BuildTable rejects: %v", name, err)
		}
		if !sameIndex(got, want) {
			t.Fatalf("table %q differs from the index built over its own columns", name)
		}
		checkKernels(t, got, cols)
	}
}
