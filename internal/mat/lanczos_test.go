package mat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"coplot/internal/rng"
)

// centeredB double-centers the squared dissimilarities between the rows
// of x, under city-block (cityBlock) or Euclidean distance: the B of
// Torgerson's classical scaling.
func centeredB(x *Matrix, cityBlock bool) *Matrix {
	n := x.Rows
	d2 := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for c := 0; c < x.Cols; c++ {
				v := x.At(i, c) - x.At(j, c)
				if cityBlock {
					s += math.Abs(v)
				} else {
					s += v * v
				}
			}
			if cityBlock {
				s *= s
			}
			d2.Set(i, j, s)
		}
	}
	return DoubleCenter(d2)
}

func normalPoints(n, p int, seed uint64) *Matrix {
	r := rng.New(seed)
	x := New(n, p)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	return x
}

// randomSym is a symmetric matrix with standard-normal entries.
func randomSym(n int, seed uint64) *Matrix {
	r := rng.New(seed)
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// withSpectrum returns V·diag(vals)·Vᵀ for an orthogonal V taken from
// the eigenvectors of a random symmetric matrix.
func withSpectrum(vals []float64, seed uint64) *Matrix {
	n := len(vals)
	_, v, err := EigenSym(randomSym(n, seed))
	if err != nil {
		panic(err)
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l, lambda := range vals {
				s += v.At(i, l) * lambda * v.At(j, l)
			}
			a.Set(i, j, s)
		}
	}
	// Symmetrize away the rounding of the triple product.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, m)
			a.Set(j, i, m)
		}
	}
	return a
}

func frobenius(a *Matrix) float64 { return math.Sqrt(dot(a.Data, a.Data)) }

// checkTopEigen compares TopEigenSym(a, k) with the full Jacobi
// decomposition. Below lanczosMinOrder the pairs must be EigenSym's,
// bit for bit. On the Lanczos path values must agree within
// 1e-12·‖a‖_F, residuals ‖a·y − λy‖ and orthonormality must hold within
// the same, vectors must equal EigenSym's up to sign as closely as the
// eigenvalue gap allows, and the sign rule must hold.
func checkTopEigen(t *testing.T, a *Matrix, k int) {
	t.Helper()
	n := a.Rows
	want, wantVecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Clone()
	vals, vecs, err := TopEigenSym(w, k)
	if err != nil {
		t.Fatal(err)
	}
	kk := min(k, n)
	if len(vals) != kk || vecs.Rows != n || vecs.Cols != kk {
		t.Fatalf("got %d values and %dx%d vectors, want %d and %dx%d",
			len(vals), vecs.Rows, vecs.Cols, kk, n, kk)
	}
	if n < lanczosMinOrder {
		for i := 0; i < kk; i++ {
			if vals[i] != want[i] || !slices.Equal(vecs.Col(i), wantVecs.Col(i)) {
				t.Fatalf("pair %d differs from EigenSym's below the cutoff", i)
			}
		}
		return
	}
	if !slices.Equal(w.Data, a.Data) {
		t.Fatal("Lanczos path modified its argument")
	}
	tol := 1e-12 * math.Max(frobenius(a), 1)
	for i := 0; i < kk; i++ {
		if math.Abs(vals[i]-want[i]) > tol {
			t.Errorf("value %d = %.17g, EigenSym %.17g", i, vals[i], want[i])
		}
		y := vecs.Col(i)
		ay := a.MulVec(y)
		res := 0.0
		for r := range y {
			res += (ay[r] - vals[i]*y[r]) * (ay[r] - vals[i]*y[r])
		}
		if math.Sqrt(res) > tol {
			t.Errorf("vector %d residual %g > %g", i, math.Sqrt(res), tol)
		}
		for j := 0; j <= i; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := dot(y, vecs.Col(j)); math.Abs(got-want) > 1e-12 {
				t.Errorf("y%d·y%d = %g, want %g", i, j, got, want)
			}
		}
		// EigenSym's stop is absolute and leaves residuals up to about
		// 1e-11·n, so a vector is pinned, with a tenfold margin, to
		// 1e-10·n over the gap to its nearest eigenvalue; a repeated
		// eigenvalue pins nothing.
		gap := math.Inf(1)
		for j := range want {
			if j != i {
				gap = math.Min(gap, math.Abs(want[j]-want[i]))
			}
		}
		ref := wantVecs.Col(i)
		sign := math.Copysign(1, dot(y, ref))
		for r := range y {
			if d := math.Abs(y[r] - sign*ref[r]); d > 1e-10*float64(n)/gap {
				t.Errorf("vector %d entry %d = %g, EigenSym ±%g (gap %g)", i, r, y[r], ref[r], gap)
				break
			}
		}
		big := 0
		for r := range y {
			if math.Abs(y[r]) > math.Abs(y[big]) {
				big = r
			}
		}
		if y[big] <= 0 {
			t.Errorf("vector %d: largest entry %d is %g, want positive", i, big, y[big])
		}
	}
}

func TestTopEigenSym(t *testing.T) {
	constant := New(40, 40)
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i != j {
				constant.Set(i, j, 9) // every dissimilarity 3
			}
		}
	}
	indefinite := make([]float64, 48)
	for i := range indefinite {
		indefinite[i] = 4 - 0.1*float64(i) // λ₁ = 4 ...
	}
	indefinite[47] = -12 // ... but |λ_min| = 12: not a magnitude order
	cases := []struct {
		name string
		a    *Matrix
		k    int
	}{
		{"cityblock/n=200", centeredB(normalPoints(200, 9, 1), true), 2},
		{"indefinite/n=48", withSpectrum(indefinite, 2), 2},
		{"constant/n=40", DoubleCenter(constant), 2},
		{"rank2/n=64", centeredB(normalPoints(64, 2, 3), false), 2},
		{"rank2/n=64/k=4", centeredB(normalPoints(64, 2, 3), false), 4},
		{"k>n/n=40", centeredB(normalPoints(40, 9, 4), true), 50},
		{"k>n/n=5", centeredB(normalPoints(5, 9, 4), true), 8},
		{"cityblock/n=31", centeredB(normalPoints(31, 9, 5), true), 2},
		{"cityblock/n=32", centeredB(normalPoints(32, 9, 6), true), 2},
		{"cityblock/n=33", centeredB(normalPoints(33, 9, 7), true), 2},
		{"random/n=60/k=5", randomSym(60, 8), 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkTopEigen(t, c.a, c.k) })
	}
}

func TestTopEigenSymRejects(t *testing.T) {
	if _, _, err := TopEigenSym(FromRows([][]float64{{1, 2}, {3, 4}}), 1); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, _, err := TopEigenSym(Identity(3), 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

// FuzzTopEigenSym compares TopEigenSym with EigenSym on small random
// symmetric matrices either side of lanczosMinOrder: generic ones
// (rank 0) and double-centered Gram matrices of rank-r point sets,
// whose repeated zero eigenvalue forces breakdowns once k > r.
func FuzzTopEigenSym(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(2), uint8(0))
	f.Add(uint64(2), uint8(33), uint8(5), uint8(3))
	f.Add(uint64(3), uint8(12), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, k, rank uint8) {
		size := 2 + int(n)%47
		var a *Matrix
		if r := int(rank) % 5; r == 0 {
			a = randomSym(size, seed)
		} else {
			a = centeredB(normalPoints(size, r, seed), false)
		}
		checkTopEigen(t, a, 1+int(k)%8)
	})
}

// BenchmarkTopEigenSym times the Jacobi and Lanczos paths on the
// double-centered city-block matrices Classical solves, either side of
// lanczosMinOrder; the crossover is where the constant comes from.
func BenchmarkTopEigenSym(b *testing.B) {
	for _, n := range []int{16, 24, 32, 48, 64, 200} {
		a := centeredB(normalPoints(n, 9, 11), true)
		w := New(n, n)
		b.Run(fmt.Sprintf("n=%d/jacobi", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(w.Data, a.Data)
				if _, _, err := EigenSymInPlace(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/lanczos", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := lanczos(a, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
