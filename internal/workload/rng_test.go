package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestRNGSourceMatchesMathRand pins the generator's streams to math/rand's
// own: for each seed, rand.New over the exact-stream source must draw the
// same Int63, Float64 and Intn values, in the same order, as rand.New over
// rand.NewSource. The seeds cover the seeding's special cases (zero, ±1,
// multiples of 2^31-1 that reduce to zero, negatives, the extremes of
// int64) and the seed mix NewGenerator uses for global cores 0-63.
func TestRNGSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, -2, 42, -987654321,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max - 1, int32max + 1,
		1 << 31, -(1 << 31), 89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, seed := range []int64{1, 7, 12345} {
		for core := 0; core < 64; core++ {
			seeds = append(seeds, seed^int64(core+1)*0x5851F42D4C957F2D)
		}
	}
	const draws = 10000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newRNGSource(seed))
		for i := 0; i < draws; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
			n := 1 + i%1000
			if i%7 == 0 {
				n = 1<<31 + i // Intn's 63-bit path
			}
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
			}
		}
	}
}
