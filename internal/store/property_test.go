package store

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: any sequence of JSON-encodable records survives a
// write-flush-scan round trip byte-for-byte and in order, across random
// segment sizes and flush points.
func TestRoundTripProperty(t *testing.T) {
	type doc struct {
		S string  `json:"s"`
		N float64 `json:"n"`
		B []byte  `json:"b"`
	}
	f := func(seed int64, nRecords uint8, segKB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			return false
		}
		st.SegmentBytes = int64(segKB)%8*512 + 128 // 128..3712 bytes
		w, err := st.Writer("p/docs", 1)
		if err != nil {
			return false
		}
		n := int(nRecords)%120 + 1
		var want [][]byte
		for i := 0; i < n; i++ {
			d := doc{
				S: randString(rng, rng.Intn(60)),
				N: rng.NormFloat64(),
				B: randBytes(rng, rng.Intn(40)),
			}
			raw, err := json.Marshal(d)
			if err != nil {
				return false
			}
			if err := w.AppendRaw("", raw); err != nil {
				return false
			}
			want = append(want, raw)
			// Random mid-stream flushes.
			if rng.Intn(10) == 0 {
				if err := w.flush(); err != nil {
					return false
				}
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		var got [][]byte
		err = st.Scan("p/docs", func(payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		// And again after reopening from disk.
		st2, err := Open(dir)
		if err != nil {
			return false
		}
		count := 0
		err = st2.Scan("p/docs", func(payload []byte) error {
			if !bytes.Equal(payload, want[count]) {
				return errCorruptCheck
			}
			count++
			return nil
		})
		return err == nil && count == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

var errCorruptCheck = ErrCorrupt

func randString(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz \"\\{}[]0123456789üñ漢"
	runes := []rune(alphabet)
	out := make([]rune, n)
	for i := range out {
		out[i] = runes[rng.Intn(len(runes))]
	}
	return string(out)
}

func randBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// Property: compaction preserves content exactly.
