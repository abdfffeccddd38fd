package community

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// goldenGraphs are the planted graphs TestCoDAFitGolden pins. The K=8
// graph (280 investors × 272 companies) and the K=16 one (160 × 144)
// both span several sweep blocks per side with a partial last block.
var goldenGraphs = []struct {
	k, m, c       int
	dense, noise  float64
	seed          int64
	codaDigest    string
	bigclamDigest string
}{
	{4, 12, 8, 0.8, 0.1, 1,
		"ff73b9d51be3c4561c2748fadf930383cf25b57525706366191ca8c91c98d9ff",
		"35832673e5dd59eaa88ab2f2e4c052d1e1494f9e81a972f3cdde3f7bd8d72987"},
	{8, 35, 34, 0.5, 0.1, 21,
		"2c90b007de80368be1b2a12e53d91080b7ec7a66b2299d5d1abb10380ff0bc43",
		"cf644dfe1cb7ddb07248c01d4bc7008cd6467246b887ba2f219903c6b3e2b864"},
	{16, 10, 9, 0.7, 0.1, 31,
		"7cff1c7cb0b26658357a01a1adc16b78922efa9f8cd9758069e938d0c978a8c4",
		"7468451d9e7166770b46289ecca10f3ce683e51bacc96c77159708fc52dd348c"},
}

// fitDigest is the SHA-256 of F's then H's float64 bits, little-endian,
// row-major.
func fitDigest(F, H [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range [][][]float64{F, H} {
		for _, row := range m {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func assignmentDigest(a *Assignment) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(a.Investors, a.Companies)))
	return hex.EncodeToString(sum[:])
}

// TestCoDAFitGolden pins the fitted membership matrices to digests of
// the unfused one-row-per-task fit (refUpdateRow's arithmetic): a change
// to the sweep or the row kernel must keep F and H bit for bit, at every
// worker count. BigCLAM shares the row kernel, so its assignment is
// pinned too.
func TestCoDAFitGolden(t *testing.T) {
	for _, g := range goldenGraphs {
		b, _ := plantedGraph(g.k, g.m, g.c, g.dense, g.noise, g.seed)
		for _, workers := range []int{1, 4} {
			F, H, err := (&CoDA{K: g.k, Seed: g.seed, Workers: workers}).fit(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := fitDigest(F, H); got != g.codaDigest {
				t.Errorf("K=%d workers=%d: CoDA F/H digest %s, want %s", g.k, workers, got, g.codaDigest)
			}
		}
		a, err := (&BigCLAM{K: g.k, Seed: g.seed}).Detect(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := assignmentDigest(a); got != g.bigclamDigest {
			t.Errorf("K=%d: BigCLAM assignment digest %s, want %s", g.k, got, g.bigclamDigest)
		}
	}
}
