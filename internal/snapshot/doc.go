// Package snapshot implements the frozen-snapshot columnar container: a
// versioned, checksummed, little-endian binary format holding named typed
// columns — int64/int32/uint8 arrays and string tables — from which a
// crawled network's rows load with one sequential read per column and no
// per-record JSON decoding. It is a pure container: it knows nothing of
// the columns' meaning, and the investment graph is not stored in it but
// rebuilt from the rows by the reader (internal/core).
//
// # Byte layout (format version 1)
//
//	header:  8 bytes  magic "CSFROZ01"
//	         4 bytes  u32 format version (1)
//	         4 bytes  u32 section count
//	section: 2 bytes  u16 name length, then name bytes (UTF-8)
//	         1 byte   u8 column kind (1=int64, 2=int32, 3=uint8, 4=strings)
//	         8 bytes  u64 logical element count
//	         8 bytes  u64 payload byte length
//	         4 bytes  u32 CRC32 (Castagnoli) of name ++ kind ++ count ++ payload
//	         payload bytes
//
// All integers are little-endian. Numeric payloads are the elements
// packed contiguously. A strings payload is (count+1) int64 offsets
// followed by the concatenated UTF-8 bytes; string i occupies
// bytes[offsets[i]:offsets[i+1]].
//
// Every section carries its own CRC so a flipped byte names the exact
// column it corrupted; the store's blob layer additionally checksums the
// whole artifact. Decoding verifies the magic, the version, every
// section frame and every CRC before any column is handed out, and a
// truncated buffer fails with a framing error rather than decoding
// garbage.
//
// Compatibility rules: readers reject any version they do not know.
// Adding new sections is backward-compatible within a version (readers
// look sections up by name and ignore extras — which is how the retired
// g.* graph sections of older artifacts are still read); re-typing a
// section, or removing one a current reader needs, requires a version
// bump.
package snapshot
