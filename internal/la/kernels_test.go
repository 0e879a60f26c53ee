package la

import (
	"math"
	"math/rand"
	"testing"
)

// kernelInputs returns n values: standard normals, with each value
// replaced by an edge case with probability p — signed zeros,
// infinities, subnormals, and magnitudes whose products overflow.
func kernelInputs(rng *rand.Rand, n int, p float64) []float64 {
	edge := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
		0x1p-1030, 1e300, -1e300,
	}
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() < p {
			v[i] = edge[rng.Intn(len(edge))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// sameBits is Float64bits equality, except that two NaNs compare equal:
// which operand's payload a NaN-producing operation keeps is not
// specified.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestKernelsMatchGoBitwise: dotf, dotf2 and tileRow, on amd64 the
// packed SSE2 kernels, carry the bits of the Go loops in kernels.go at
// every tail length, on unaligned slices, and on inputs that drive
// lanes through zeros, subnormals, infinities and NaNs.
func TestKernelsMatchGoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0, 0.05, 0.5} {
		for n := 0; n <= 2*cholBlock+3; n++ {
			// Offset 1 puts every slice off 16-byte alignment.
			a0 := kernelInputs(rng, n+1, p)[1:]
			a1 := kernelInputs(rng, n+1, p)[1:]
			b := kernelInputs(rng, n+1, p)[1:]
			if got, want := dotf(a0, b), dotfGo(a0, b); !sameBits(got, want) {
				t.Fatalf("p=%v n=%d: dotf %v != %v", p, n, got, want)
			}
			g0, g1 := dotf2(a0, a1, b)
			w0, w1 := dotf2Go(a0, a1, b)
			if !sameBits(g0, w0) || !sameBits(g1, w1) {
				t.Fatalf("p=%v n=%d: dotf2 (%v, %v) != (%v, %v)", p, n, g0, g1, w0, w1)
			}
		}
		for i := 0; i <= 130; i++ {
			l := kernelInputs(rng, i+1, p)[1:]
			x := kernelInputs(rng, i*SolveTile+1, p)[1:]
			var got, want [SolveTile]float64
			copy(got[:], kernelInputs(rng, SolveTile, p))
			want = got
			tileRow(l, x, &got)
			tileRowGo(l, x, &want)
			for c := range got {
				if !sameBits(got[c], want[c]) {
					t.Fatalf("p=%v i=%d col %d: tileRow %v != %v", p, i, c, got[c], want[c])
				}
			}
		}
	}
}
