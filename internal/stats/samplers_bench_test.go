package stats

import (
	"fmt"
	"testing"
)

// samplerDraw keeps the benchmarked draws from being optimized away.
var samplerDraw int64

// BenchmarkSamplers prices one draw of each sampler the swap-run
// collapse makes (ns/op is ns per draw): the walker's displacement at
// chunk lengths from just above collapseMin to the kernelPass cap, the
// negative-binomial gap total and the hypergeometric budget cut at the
// sizes of a collapse at n = 8192 (two enabled pairs among C(n, 2)),
// the two fair-coin paths on either side of popcountMax, the
// measurement that places the crossover, and the strip exit of a
// kernelPass epoch (h = 2¹⁶) in a 4096-wide strip — ends far, at 4 and
// at 1 sd — with the hypergeometric draw at its bisection's first
// midpoint. Run it through `scripts/bench.sh stats`.
func BenchmarkSamplers(b *testing.B) {
	for _, steps := range []int64{17, 512, 4096, 1 << 16} {
		b.Run(fmt.Sprintf("WalkDisplacement/steps=%d", steps), func(b *testing.B) {
			src := newSource(1)
			for i := 0; i < b.N; i++ {
				samplerDraw = WalkDisplacement(src, steps)
			}
		})
	}
	const pairs = 8192 * 8191 / 2
	b.Run("NegBinomial/r=4096/m=2", func(b *testing.B) {
		src := newSource(2)
		for i := 0; i < b.N; i++ {
			samplerDraw = NegBinomial(src, 4096, 2.0/pairs)
		}
	})
	// A budget cut halfway through a 4096-landing chunk's span.
	b.Run("Hypergeometric/draws=2^23/marked=4095/total=2^24", func(b *testing.B) {
		src := newSource(3)
		for i := 0; i < b.N; i++ {
			samplerDraw = Hypergeometric(src, 1<<23, 4095, 1<<24-1)
		}
	})
	for _, a := range []int64{-2048, -1024, -256} {
		b.Run(fmt.Sprintf("StripExit/h=2^16/a=%d/b=%d", a, a+4096), func(b *testing.B) {
			src := newSource(6)
			for i := 0; i < b.N; i++ {
				samplerDraw, _ = StripExit(src, 1<<16, a, a+4096)
			}
		})
	}
	b.Run("Hypergeometric/draws=2^15/marked=2^15/total=2^16", func(b *testing.B) {
		src := newSource(7)
		for i := 0; i < b.N; i++ {
			samplerDraw = Hypergeometric(src, 1<<15, 1<<15, 1<<16)
		}
	})
	for _, n := range []int64{512, 768, 1024} {
		b.Run(fmt.Sprintf("fair-coins/popcount/n=%d", n), func(b *testing.B) {
			src := newSource(4)
			for i := 0; i < b.N; i++ {
				samplerDraw = fairCoins(src, n)
			}
		})
		b.Run(fmt.Sprintf("fair-coins/btrs/n=%d", n), func(b *testing.B) {
			src := newSource(5)
			for i := 0; i < b.N; i++ {
				samplerDraw = binomialBTRS(src, n, 0.5)
			}
		})
	}
}
