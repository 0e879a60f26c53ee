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

// TestKernelsMatchGoBitwise: dotf2 carries the bits of two dotf calls,
// which the trailing update's row pairing relies on, and tileRow2, on
// amd64 with AVX one kernel, those of two tileRow calls; the Cholesky's
// row solve and trailing update, on amd64 with AVX whole kernels four
// rows at a time, carry the bits of the Go loops in kernels.go at every
// tail length and row remainder. All of them on unaligned slices and on
// inputs that drive lanes through zeros, subnormals, infinities and
// NaNs; Exp carries math.Exp's (expInputs).
func TestKernelsMatchGoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0, 0.05, 0.5} {
		for n := 0; n <= 2*cholBlock+3; n++ {
			// Offset 1 puts every slice off 16-byte alignment.
			a0 := kernelInputs(rng, n+1, p)[1:]
			a1 := kernelInputs(rng, n+1, p)[1:]
			b := kernelInputs(rng, n+1, p)[1:]
			g0, g1 := dotf2(a0, a1, b)
			w0, w1 := dotf(a0, b), dotf(a1, b)
			if !sameBits(g0, w0) || !sameBits(g1, w1) {
				t.Fatalf("p=%v n=%d: dotf2 (%v, %v) != (%v, %v)", p, n, g0, g1, w0, w1)
			}
		}
		for i := 0; i <= 130; i++ {
			l := kernelInputs(rng, i+1, p)[1:]
			x := kernelInputs(rng, i*SolveTile+1, p)[1:]
			x1 := kernelInputs(rng, i*SolveTile+1, p)[1:]
			var got0, got1, want0, want1 [SolveTile]float64
			copy(got0[:], kernelInputs(rng, SolveTile, p))
			copy(got1[:], kernelInputs(rng, SolveTile, p))
			want0, want1 = got0, got1
			tileRow2(l, x, x1, &got0, &got1)
			tileRow(l, x, &want0)
			tileRow(l, x1, &want1)
			for c := range got0 {
				if !sameBits(got0[c], want0[c]) || !sameBits(got1[c], want1[c]) {
					t.Fatalf("p=%v i=%d col %d: tileRow2 (%v, %v) != (%v, %v)", p, i, c, got0[c], got1[c], want0[c], want1[c])
				}
			}
		}
	}
	for _, p := range []float64{0, 0.05, 0.5} {
		for _, rows := range []int{1, 3, 4, 5, 8, 9, 12, 13} {
			for w := 0; w <= cholBlock+6; w++ {
				n := w + 3
				x := kernelInputs(rng, rows*n+1, p)[1:]
				l := kernelInputs(rng, max(w*n, 1)+1, p)[1:]
				want := append([]float64(nil), x...)
				solveRows(x, l, n, rows, w)
				solveRowsRef(want, l, n, rows, w)
				for i := range x {
					if !sameBits(x[i], want[i]) {
						t.Fatalf("p=%v rows=%d w=%d: solveRows entry (%d,%d) = %v, Go loop %v", p, rows, w, i/n, i%n, x[i], want[i])
					}
				}
			}
			for _, off := range []int{0, 1, 2, 3, 6} {
				// A matrix whose panel columns [0, cholBlock) of rows
				// [cholBlock, cholBlock+off+rows) feed the trailing
				// entries of its last rows, as in the factorization.
				n := cholBlock + off + rows + 3
				p0 := cholBlock + off
				a := kernelInputs(rng, n*n+1, p)[1:]
				want := append([]float64(nil), a...)
				trail(a[p0*n:], a[cholBlock*n:], n, rows, off)
				trailRef(want[p0*n:], want[cholBlock*n:], n, rows, off)
				for i := range a {
					if !sameBits(a[i], want[i]) {
						t.Fatalf("p=%v rows=%d off=%d: trail entry (%d,%d) = %v, Go loop %v", p, rows, off, i/n, i%n, a[i], want[i])
					}
				}
			}
		}
	}
	src := expInputs()
	for off := 0; off < 4; off++ {
		for _, in := range [][]float64{src[off:], src[off : off+7]} {
			got := make([]float64, len(in)+1)[1:]
			Exp(got, in)
			inPlace := append([]float64(nil), in...)
			Exp(inPlace, inPlace)
			for i, x := range in {
				want := math.Exp(x)
				if !sameBits(got[i], want) || !sameBits(inPlace[i], want) {
					t.Fatalf("off=%d: Exp(%v) = %v (in place %v), math.Exp %v", off, x, got[i], inPlace[i], want)
				}
			}
		}
	}
}

// solveRowsRef is solveRowsDot on dotf alone.
func solveRowsRef(x, l []float64, n, rows, w int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < w; j++ {
			x[r*n+j] = (x[r*n+j] - dotf(x[r*n:r*n+j], l[j*n:j*n+j])) / l[j*n+j]
		}
	}
}

// trailRef is trailDot on dotf alone, one entry at a time.
func trailRef(x, c []float64, n, rows, off int) {
	for r := 0; r < rows; r++ {
		for q := 0; q <= off+r; q++ {
			x[r*n+cholBlock+q] -= dotf(x[r*n:r*n+cholBlock], c[q*n:q*n+cholBlock])
		}
	}
}

// expInputs returns a dense grid over [-746, 710], which runs from
// below the smallest argument whose exponential is a nonzero subnormal
// to past overflow, with special arguments put in place of one grid
// point per group of four in its middle, so that they share groups with
// lanes the packed path takes: signed zeros, infinities, NaN,
// subnormals, the edges of the packed range, the overflow and underflow
// boundaries of math.Exp, the probe inputs and a few rounding-sensitive
// arguments.
func expInputs() []float64 {
	const lo, hi, steps = -746.0, 710.0, 1 << 20
	grid := make([]float64, steps+1)
	for i := range grid {
		grid[i] = lo + (hi-lo)*float64(i)/steps
	}
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1022,
		700, -700, math.Nextafter(700, 800), math.Nextafter(-700, -800),
		math.Nextafter(700, 0), math.Nextafter(-700, 0),
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 800),
		math.Nextafter(7.09782712893384e+02, 0), math.Log(math.MaxFloat64),
		-745.1332191019411, -745.1332191019412, -708.3964185322641, -708.4,
		1e300, -1e300,
		// Two of the few arguments (about one in 10^7) on which the
		// polynomial's 1/6 step, rounded as a multiply and an add
		// instead of fused, moves the result; the grid has none.
		-1.69140307891963, -3.9073412860950363,
	}
	for _, p := range expProbe {
		special = append(special, p.x)
	}
	mid := steps / 2 // about -18: every lane around it is in the packed range
	for i, x := range special {
		grid[mid+4*i+1] = x
	}
	return grid
}

// choleskyRef is CholeskyExtendInPlace's blocked loop as it stood
// before the row solve and the trailing update became kernels, calling
// only the Go loops dotf and dotf2: it pins the factorization's own
// operation order, where TestKernelsMatchGoBitwise pins only the inner
// products'.
func choleskyRef(a *Matrix, start int) error {
	n := a.rows
	for k0 := 0; k0 < n; k0 += cholBlock {
		k1 := min(k0+cholBlock, n)
		for i := max(k0, start); i < k1; i++ {
			ri := a.data[i*n : i*n+n]
			for j := k0; j < i; j++ {
				rj := a.data[j*n : j*n+n]
				ri[j] = (ri[j] - dotf(ri[k0:j], rj[k0:j])) / rj[j]
			}
			d := ri[i] - dotf(ri[k0:i], ri[k0:i])
			if d <= 0 || math.IsNaN(d) {
				return ErrNotPositiveDefinite
			}
			ri[i] = math.Sqrt(d)
		}
		p0 := max(k1, start)
		for i := p0; i < n; i++ {
			ri := a.data[i*n : i*n+n]
			for j := k0; j < k1; j++ {
				rj := a.data[j*n : j*n+n]
				ri[j] = (ri[j] - dotf(ri[k0:j], rj[k0:j])) / rj[j]
			}
		}
		i := p0
		for ; i+1 < n; i += 2 {
			ri := a.data[i*n : i*n+n]
			ri1 := a.data[(i+1)*n : (i+1)*n+n]
			seg, seg1 := ri[k0:k1], ri1[k0:k1]
			for j := k1; j <= i; j++ {
				d0, d1 := dotf2(seg, seg1, a.data[j*n+k0:j*n+k1])
				ri[j] -= d0
				ri1[j] -= d1
			}
			ri1[i+1] -= dotf(seg1, seg1)
		}
		if i < n {
			ri := a.data[i*n : i*n+n]
			for j := k1; j <= i; j++ {
				ri[j] -= dotf(ri[k0:k1], a.data[j*n+k0:j*n+k1])
			}
		}
	}
	return nil
}

// TestCholeskyMatchesGoReferenceBitwise: CholeskyExtendInPlace, at
// every block-edge size and at several starts per size, carries
// choleskyRef's bits in every entry of the lower triangle and leaves
// the strictly upper triangle, NaN here, as it was.
func TestCholeskyMatchesGoReferenceBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64, 65, 66, 127, 128, 129, 130, 257, 400} {
		a := spdMatrix(n, int64(n))
		full := a.Clone()
		if err := choleskyRef(full, 0); err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, start := range []int{0, 1, 3, n / 3, 63, 64, 65, n - 5, n - 1, n} {
			if start < 0 || start > n {
				continue
			}
			// Finished rows below start, input rows from start on, NaN
			// above the diagonal.
			in := a.Clone()
			for i := 0; i < n; i++ {
				row := in.RawRow(i)
				if i < start {
					copy(row[:i+1], full.RawRow(i)[:i+1])
				}
				for j := i + 1; j < n; j++ {
					row[j] = math.NaN()
				}
			}
			got, want := in.Clone(), in.Clone()
			if err := CholeskyExtendInPlace(got, start); err != nil {
				t.Fatalf("n=%d start=%d: %v", n, start, err)
			}
			if err := choleskyRef(want, start); err != nil {
				t.Fatalf("n=%d start=%d: reference: %v", n, start, err)
			}
			for i, v := range got.data {
				if math.Float64bits(v) != math.Float64bits(want.data[i]) {
					t.Fatalf("n=%d start=%d: entry (%d,%d) = %v, reference %v", n, start, i/n, i%n, v, want.data[i])
				}
			}
		}
	}
}
