package stats

import "math/rand"

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix
// turning a counter into a high-quality 64-bit value. Used for the
// counter-based pair stream, where draw k must be computable without
// drawing 0..k-1 first.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PairAt returns the k-th ordered pair (i, j), i != j, of the i.i.d.
// uniform pair stream identified by seed — the sampling scheme the paper
// uses to estimate the global shared-investment-size CDF from 800,000
// investor pairs. The stream is counter-based: any index is addressable
// in O(1) independent of the others, so parallel workers can evaluate
// disjoint index ranges and produce exactly the stream a serial loop
// would. pop must be >= 2.
func PairAt(seed int64, k, pop int) (i, j int) {
	h := splitmix64(uint64(seed) ^ splitmix64(uint64(k)))
	i = int(h % uint64(pop))
	j = int(splitmix64(h) % uint64(pop-1))
	if j >= i {
		j++
	}
	return i, j
}

// ReservoirSample returns k items drawn uniformly without replacement from
// a stream of length n presented through at(idx). If k >= n it returns all
// indices. The result holds indices into the stream.
func ReservoirSample(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = i
		}
	}
	return out
}

// Bootstrap resamples the sample with replacement n times, passing each
// resampled slice (reused between calls — copy it if retained) to f.
func Bootstrap(rng *rand.Rand, sample []float64, n int, f func(resample []float64)) {
	if len(sample) == 0 || n <= 0 {
		return
	}
	buf := make([]float64, len(sample))
	for it := 0; it < n; it++ {
		for i := range buf {
			buf[i] = sample[rng.Intn(len(sample))]
		}
		f(buf)
	}
}
