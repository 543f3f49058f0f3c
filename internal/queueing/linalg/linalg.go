// Package linalg implements the small dense-matrix operations needed by
// the matrix-analytic (QBD) solver: multiplication, addition, scaling,
// inversion by Gauss–Jordan with partial pivoting, and linear solves.
// Matrices here are tiny (at most ~(MPL+1)² entries), so simplicity and
// numerical robustness are preferred over asymptotic speed.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows needs non-empty rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Add shape mismatch")
	}
	c := New(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: Sub shape mismatch")
	}
	c := New(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s·m.
func (m *Matrix) Scale(s float64) *Matrix {
	c := New(m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = s * m.Data[i]
	}
	return c
}

// Mul returns m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += float64(a * b.At(k, j))
			}
		}
	}
	return c
}

// MulVec returns m·v for a column vector v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVec shape mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += float64(m.At(i, j) * v[j])
		}
		out[i] = s
	}
	return out
}

// VecMul returns vᵀ·m for a row vector v.
func VecMul(v []float64, m *Matrix) []float64 {
	if m.Rows != len(v) {
		panic("linalg: VecMul shape mismatch")
	}
	out := make([]float64, m.Cols)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		for j := 0; j < m.Cols; j++ {
			out[j] += float64(vi * m.At(i, j))
		}
	}
	return out
}

// Inverse returns m⁻¹ via Gauss–Jordan elimination with partial
// pivoting, or an error if m is singular (pivot below tolerance).
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix (pivot %g at column %d)", best, col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-float64(f*a.At(col, j)))
				inv.Set(r, j, inv.At(r, j)-float64(f*inv.At(col, j)))
			}
		}
	}
	return inv, nil
}

// SolveLinear solves A·x = b for x by Gaussian elimination with partial
// pivoting. A is not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: solve shape mismatch %dx%d vs %d", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("linalg: singular system (pivot %g at column %d)", best, col)
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		p := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / p
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-float64(f*m.At(col, j)))
			}
			x[r] -= float64(f * x[col])
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(m.At(i, j) * x[j])
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// MaxAbsDiff returns the max absolute elementwise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
