package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"crowdscope/internal/snapshot"
)

// The container framing, as internal/snapshot's package doc specifies
// it: the tests below forge frames the Encoder refuses to write.
const (
	frozenMagic     = "CSFROZ01"
	kindInt64       = 1
	kindStrings     = 4
	frameHeaderSize = 2 + 1 + 8 + 8 + 4 // name length, kind, count, payload length, CRC
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameChecksum is a section's CRC32C over name ++ kind ++ count ++ payload.
func frameChecksum(name string, kind byte, count uint64, payload []byte) uint32 {
	hdr := append([]byte(name), kind)
	hdr = binary.LittleEndian.AppendUint64(hdr, count)
	return crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, payload)
}

// forgeArtifact frames one section whose count need not match its
// payload, behind a valid header and CRC.
func forgeArtifact(name string, kind byte, count uint64, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte(frozenMagic), snapshot.FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(name)))
	out = append(out, name...)
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint64(out, count)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, frameChecksum(name, kind, count, payload))
	return append(out, payload...)
}

// reseal returns a copy of data with the CRC of every complete section
// frame recomputed; it stops at the first frame that does not fit.
func reseal(data []byte) []byte {
	out := slices.Clone(data)
	pos := len(frozenMagic) + 8
	for pos+2 <= len(out) {
		nameLen := int(binary.LittleEndian.Uint16(out[pos:]))
		hdr, start := pos+2+nameLen, pos+frameHeaderSize+nameLen
		if start > len(out) {
			break
		}
		payloadLen := binary.LittleEndian.Uint64(out[hdr+9:])
		if uint64(len(out)-start) < payloadLen {
			break
		}
		end := start + int(payloadLen)
		sum := frameChecksum(string(out[pos+2:hdr]), out[hdr], binary.LittleEndian.Uint64(out[hdr+1:]), out[start:end])
		binary.LittleEndian.PutUint32(out[hdr+17:], sum)
		pos = end
	}
	return out
}

// unknownVersion reports whether data carries the magic and a format
// version this reader does not know — the one non-ErrCorrupt refusal.
func unknownVersion(data []byte) bool {
	return len(data) >= len(frozenMagic)+8 && string(data[:len(frozenMagic)]) == frozenMagic &&
		binary.LittleEndian.Uint32(data[len(frozenMagic):]) != snapshot.FormatVersion
}

// frozenFuzzSeeds returns encoded snapshots (a world, an empty one, one
// with an edgeless investor, one still carrying the retired g.* graph
// sections, with and without a bogus CSR in them) plus the corruptions
// the unit tests exercise: out-of-order and duplicated rows, a flipped
// byte, truncation, trailing bytes, bad magic, a future version,
// investment offsets that disagree with their table, counts that
// overflow their payload and a section count no input could frame.
func frozenFuzzSeeds(f *testing.F) [][]byte { return frozenFuzzSeedsT(f) }
func frozenFuzzSeedsT(f testing.TB) [][]byte {
	f.Helper()
	encode := func(fs *FrozenSnapshot) []byte {
		data, err := EncodeFrozen(fs)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	column := func(fill func(e *snapshot.Encoder)) []byte {
		e := snapshot.NewEncoder()
		e.Int64s("meta.snapshot", []int64{0})
		fill(e)
		data, err := e.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	_, world := newWorldGen(1, 12)
	good := encode(world)
	edgeless := &FrozenSnapshot{Companies: world.Companies[:2], Investors: []Investor{{ID: "inv-a", Investments: []string{}}}}
	swapped := &FrozenSnapshot{Companies: slices.Clone(world.Companies), Investors: world.Investors}
	swapped.Companies[0], swapped.Companies[1] = swapped.Companies[1], swapped.Companies[0]
	duplicated := &FrozenSnapshot{Companies: world.Companies, Investors: append(world.Investors[:1:1], world.Investors...)}

	withGraph := encodeWithGraphSections(f, world)
	bogusGraph := slices.Clone(withGraph)
	bogusGraph[len(bogusGraph)-1] ^= 0x7f // the last g.rev.targets entry
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	badMagic := slices.Clone(good)
	badMagic[0] = 'X'
	future := slices.Clone(good)
	binary.LittleEndian.PutUint32(future[len(frozenMagic):], snapshot.FormatVersion+1)

	return [][]byte{
		good, encode(&FrozenSnapshot{}), encode(edgeless), withGraph, reseal(bogusGraph),
		encode(swapped), encode(duplicated),
		flipped, good[:len(good)-1], append(slices.Clone(good), 0xAA), badMagic, future,
		column(func(e *snapshot.Encoder) {
			companyColumns.encode(e, "co", nil)
			e.Strings("inv.ids", []string{"inv-a", "inv-b"})
			e.Int64s("inv.follows", []int64{0, 0})
			e.Int64s("inv.investments.offsets", []int64{0, 2, 1})
			e.Strings("inv.investments.flat", []string{"co-1"})
		}),
		forgeArtifact("co.ids", kindStrings, math.MaxUint64, nil),
		forgeArtifact("co.likes", kindInt64, 1<<61, nil),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte(frozenMagic), snapshot.FormatVersion), 0x0FFFFFFF),
	}
}

// FuzzDecodeFrozen: DecodeFrozen over any bytes returns either an error
// wrapping snapshot.ErrCorrupt (an unknown format version is the one
// other refusal) or a snapshot whose IDs are strictly ascending and
// whose graph is the one newFrozen builds over its own rows — never a
// panic, and never an allocation out of proportion to the input. Each
// input is decoded as given, which exercises framing and CRCs, and again
// with every complete section's CRC recomputed, so mutations also reach
// the column checks behind the checksums.
func FuzzDecodeFrozen(f *testing.F) {
	for _, seed := range frozenFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeFrozen(t, data)
		checkDecodeFrozen(t, reseal(data))
	})
}

// maxDecodeAllocPerByte bounds what DecodeFrozen may allocate per input
// byte, plus a fixed 64 KiB: every row, string and graph entry it builds
// is paid for by at least one 8-byte offset or value. (Real artifacts
// allocate 2 to 3 bytes per byte.)
const maxDecodeAllocPerByte = 64

// checkDecodeFrozen decodes data and checks the fuzz invariant.
func checkDecodeFrozen(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs, err := DecodeFrozen(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxDecodeAllocPerByte*uint64(len(data))+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
	if err != nil {
		if !errors.Is(err, snapshot.ErrCorrupt) && !unknownVersion(data) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		return
	}
	if !strictlyAscending(companyColumns.keys(fs.Companies)) || !strictlyAscending(investorColumns.keys(fs.Investors)) {
		t.Fatal("decoded rows are not strictly ascending by ID")
	}
	want, err := newFrozen(fs.Snapshot, fs.Companies, fs.Investors)
	if err != nil {
		t.Fatalf("decoded rows the kernel rejects: %v", err)
	}
	if !reflect.DeepEqual(fs, want) {
		t.Fatal("decoded graph differs from the one built over the decoded rows")
	}
}
