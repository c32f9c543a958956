package mat

import (
	"fmt"
	"math"
)

// lanczosMinOrder is the order at and above which TopEigenSym runs
// Lanczos instead of the full Jacobi decomposition. Jacobi costs O(n³)
// per sweep but no more; Lanczos adds Ritz solves to its O(n²) steps.
// BenchmarkTopEigenSym on double-centered city-block matrices (2 vCPU
// Xeon, linux/amd64, go1.24): n = 24 Jacobi 0.58–0.62 ms, Lanczos
// 0.94–1.0 ms; n = 32 a tie at 1.1–1.6 ms; n = 36 Jacobi 2.1–2.3 ms,
// Lanczos 1.2–1.5 ms; n = 48 4.4–5.0 ms against 1.0–1.1 ms; n = 200
// 360–460 ms against 3.3–3.6 ms. The paper's maps (at most 20
// observations) stay on Jacobi, so their outputs are unchanged.
const lanczosMinOrder = 32

// lanczosTol is the relative residual, against ‖w‖_F, at which a Ritz
// pair counts as converged.
const lanczosTol = 1e-13

// ritzStride is the least number of Lanczos steps between Ritz solves;
// past 4·ritzStride steps the gap grows to a quarter of the step count.
// A solve costs O(m³) Jacobi work against a step's O(n²) product:
// solving at every step took BenchmarkTopEigenSym at n = 200 from
// 3.7 ms to 6.9 ms, and the geometric gap keeps a run that needs all n
// steps (a clustered spectrum) within a small multiple of one Jacobi
// solve of w. A run overshoots convergence by at most that gap.
const ritzStride = 4

// TopEigenSym returns the k algebraically largest eigenvalues of the
// symmetric matrix w in descending order, with their unit eigenvectors
// as the columns of the n×k vectors matrix; k is clamped to n.
//
// Below lanczosMinOrder it returns the first k pairs of
// EigenSymInPlace(w), so w is overwritten. From there on it runs
// Lanczos with full reorthogonalization, reads w without changing it,
// and fixes each vector's sign so its largest-magnitude entry (the
// first of equals) is positive. The run stops once every top-k Ritz
// residual is within lanczosTol·‖w‖_F, or after n steps, when it is
// exact. A step whose residual vanishes is a breakdown: the basis spans
// an invariant subspace, and the run goes on from the unit vector least
// represented in the basis. A start vector sees one copy of each
// eigenvalue, so a repeated top eigenvalue is found only through such
// a breakdown; a breakdown of the first block therefore never ends the
// run, and each later block must converge its own top Ritz pair too.
func TopEigenSym(w *Matrix, k int) (values []float64, vectors *Matrix, err error) {
	if !w.IsSymmetric(1e-9) {
		return nil, nil, fmt.Errorf("mat: TopEigenSym requires a symmetric matrix")
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("mat: TopEigenSym needs k >= 1, got %d", k)
	}
	n := w.Rows
	k = min(k, n)
	if n >= lanczosMinOrder {
		return lanczos(w, k)
	}
	vals, vecs, err := EigenSymInPlace(w)
	if err != nil {
		return nil, nil, err
	}
	top := New(n, k)
	for i := 0; i < n; i++ {
		copy(top.Data[i*k:(i+1)*k], vecs.Data[i*n:i*n+k])
	}
	return vals[:k], top, nil
}

// lanczos is TopEigenSym's Lanczos path for 1 <= k <= a.Rows.
func lanczos(a *Matrix, k int) ([]float64, *Matrix, error) {
	n := a.Rows
	tol := lanczosTol * math.Sqrt(dot(a.Data, a.Data))

	// Row j of basis is the Lanczos vector q_j. The tridiagonal T has
	// diagonal alpha and off-diagonal beta; beta[j] = 0 marks the
	// breakdown that ended a block.
	var basis, alpha, beta []float64
	q := make([]float64, n)
	for i := range q {
		q[i] = startEntry(i)
	}
	scale(q, 1/math.Sqrt(dot(q, q)))
	r := make([]float64, n)
	blockStart, nextRitz := 0, ritzStride
	for m := 1; ; m++ {
		basis = append(basis, q...)
		for i := 0; i < n; i++ {
			r[i] = dot(a.Data[i*n:(i+1)*n], q)
		}
		alpha = append(alpha, dot(q, r))
		orthogonalize(r, basis, n)
		b := math.Sqrt(dot(r, r))
		broke := b <= tol

		if m == n || broke || m >= nextRitz {
			nextRitz = m + max(ritzStride, m/4)
			vals, s, err := ritz(alpha, beta)
			if err != nil {
				return nil, nil, err
			}
			if m == n || !(broke && blockStart == 0) && ritzConverged(s, m, k, blockStart, b, tol) {
				return vals[:k], ritzVectors(basis, s, n, k), nil
			}
		}
		if broke {
			restartVector(q, basis, n)
			beta = append(beta, 0)
			blockStart = m
		} else {
			for i := range q {
				q[i] = r[i] / b
			}
			beta = append(beta, b)
		}
	}
}

// startEntry is entry i of the deterministic start vector: a
// splitmix64 hash of i mapped to [-1, 1). A constant start would fail
// on a double-centered matrix, whose product with 1 is 0.
func startEntry(i int) float64 {
	x := uint64(i+1) * 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<52) - 1
}

// ritz solves the m×m tridiagonal Ritz problem with EigenSym. EigenSym
// stops on an absolute off-diagonal mass (1e-22·m²), so T is first
// scaled by a power of two, which is exact, to a Frobenius norm near
// 2^10: the stop then leaves relative residuals near 1e-14·m, below
// lanczosTol, where at T's own scale it could leave 1e-11·m.
func ritz(alpha, beta []float64) ([]float64, *Matrix, error) {
	m := len(alpha)
	_, e := math.Frexp(math.Sqrt(dot(alpha, alpha) + 2*dot(beta, beta)))
	t := New(m, m)
	for j := 0; j < m; j++ {
		t.Set(j, j, math.Ldexp(alpha[j], 10-e))
		if j+1 < m {
			b := math.Ldexp(beta[j], 10-e)
			t.Set(j, j+1, b)
			t.Set(j+1, j, b)
		}
	}
	vals, s, err := EigenSymInPlace(t)
	for i := range vals {
		vals[i] = math.Ldexp(vals[i], e-10)
	}
	return vals, s, err
}

// ritzConverged reports whether the top k Ritz pairs, and the top pair
// of the block that started at blockStart, have residuals b·|s_{m,i}|
// within tol. The eigenvectors of a block-diagonal T live on one block
// each, so the block's top pair is the first column with its weight in
// rows blockStart and later.
func ritzConverged(s *Matrix, m, k, blockStart int, b, tol float64) bool {
	if m < k {
		return false
	}
	for i := 0; i < k; i++ {
		if b*math.Abs(s.At(m-1, i)) > tol {
			return false
		}
	}
	for i := 0; i < m; i++ {
		w := 0.0
		for j := blockStart; j < m; j++ {
			w += s.At(j, i) * s.At(j, i)
		}
		if w > 0.5 {
			return b*math.Abs(s.At(m-1, i)) <= tol
		}
	}
	return true
}

// restartVector writes into q the unit vector e_t least represented in
// the basis (largest ‖(I−QQᵀ)e_t‖, the first of equals), orthogonalized
// against it. Those squared norms sum to n−m, so the chosen one is at
// least sqrt((n−m)/n) and the new direction is well defined.
func restartVector(q, basis []float64, n int) {
	best, bestW := 0, -1.0
	for t := 0; t < n; t++ {
		w := 1.0
		for j := t; j < len(basis); j += n {
			w -= basis[j] * basis[j]
		}
		if w > bestW {
			best, bestW = t, w
		}
	}
	for i := range q {
		q[i] = 0
	}
	q[best] = 1
	orthogonalize(q, basis, n)
	scale(q, 1/math.Sqrt(dot(q, q)))
}

// orthogonalize removes from r its components along every basis
// vector, in two Gram–Schmidt passes.
func orthogonalize(r, basis []float64, n int) {
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < len(basis); j += n {
			qj := basis[j : j+n]
			c := dot(qj, r)
			for i, v := range qj {
				r[i] -= c * v
			}
		}
	}
}

// ritzVectors forms the first k Ritz vectors Q·s_i, unit vectors since
// Q and s_i are orthonormal, as the columns of an n×k matrix, and
// flips each so its largest-magnitude entry (the first of equals) is
// positive.
func ritzVectors(basis []float64, s *Matrix, n, k int) *Matrix {
	y := New(n, k)
	for j := 0; j*n < len(basis); j++ {
		for i := 0; i < k; i++ {
			c := s.At(j, i)
			for r, v := range basis[j*n : (j+1)*n] {
				y.Data[r*k+i] += c * v
			}
		}
	}
	for i := 0; i < k; i++ {
		big := i
		for r := i + k; r < len(y.Data); r += k {
			if math.Abs(y.Data[r]) > math.Abs(y.Data[big]) {
				big = r
			}
		}
		if y.Data[big] < 0 {
			for r := i; r < len(y.Data); r += k {
				y.Data[r] = -y.Data[r]
			}
		}
	}
	return y
}

func dot(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

func scale(x []float64, f float64) {
	for i := range x {
		x[i] *= f
	}
}
