package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi rotation method. It returns the eigenvalues in
// descending order and the matching unit eigenvectors as the columns of the
// returned matrix. EigenSym returns an error if a is not symmetric or the
// sweep limit is exhausted before convergence. a is not modified.
func EigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	return EigenSymInPlace(a.Clone())
}

// EigenSymInPlace is EigenSym running the Jacobi rotations on w itself
// instead of on a copy, then reusing w's storage for the returned
// eigenvectors: on success vectors is w. Values and vectors are
// bit-identical to EigenSym(w). Callers that own a scratch matrix
// (classical scaling) use it to skip two n×n allocations. On error w
// holds a partially rotated matrix.
func EigenSymInPlace(w *Matrix) (values []float64, vectors *Matrix, err error) {
	if !w.IsSymmetric(1e-9) {
		return nil, nil, fmt.Errorf("mat: EigenSym requires a symmetric matrix")
	}
	n := w.Rows
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			return extractEigen(w, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	return nil, nil, fmt.Errorf("mat: EigenSym did not converge in %d sweeps", maxSweeps)
}

// rotate applies the Jacobi rotation G(p,q,θ) to w (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided).
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp := w.At(k, p)
		wkq := w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk := w.At(p, k)
		wqk := w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func extractEigen(w, v *Matrix) ([]float64, *Matrix, error) {
	n := w.Rows
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })
	values := make([]float64, n)
	// The diagonal has been read into pairs and the rotated working
	// matrix is spent, so its storage takes the sorted eigenvectors.
	vectors := w
	for col, p := range pairs {
		values[col] = p.val
		for row := 0; row < n; row++ {
			vectors.Set(row, col, v.At(row, p.idx))
		}
	}
	return values, vectors, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
