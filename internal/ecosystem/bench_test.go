package ecosystem

import (
	"context"
	"testing"

	"crowdscope/internal/store"
)

// The two generation paths at the batch job's scale (0.1: 74,404
// companies / 110,944 users). Run with -benchtime=5x or so: one
// iteration is a whole world.
const benchScale = 0.1

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(NewConfig(1, benchScale)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateTo(b *testing.B) {
	cfg := NewConfig(1, benchScale)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := GenerateTo(context.Background(), st, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
