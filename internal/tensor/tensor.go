// Package tensor provides the small dense-tensor math underlying
// Pictor's neural networks: shaped float64 arrays, the transposed
// matrix multiply and matrix-vector product of the dense layers, and
// softmax.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 array with a shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zeroed tensor with the given shape. It keeps a copy of
// shape, never shape itself, so a caller's variadic argument slice stays
// on the caller's stack.
func New(shape ...int) *Tensor {
	dims := append([]int(nil), shape...)
	n := 1
	for _, s := range dims {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", s, dims))
		}
		n *= s
	}
	return &Tensor{Shape: dims, Data: make([]float64, n)}
}

// Ensure reshapes t to the given shape, reusing its storage when the
// capacity allows, and allocates a new tensor otherwise (or when t is
// nil). Batch scratch uses it: batch sizes fluctuate tick to tick, and
// the scratch must not reallocate every time the batch shrinks. Contents
// are unspecified; callers fully overwrite.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if t == nil || cap(t.Data) < n {
		return New(shape...)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// FromSlice wraps data with a shape (no copy). len(data) must match.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len reports the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dims reports the shape length.
func (t *Tensor) Dims() int { return len(t.Shape) }

// index computes the flat offset for multi-dimensional indices.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= t.Shape[d] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", i, d, t.Shape[d]))
		}
		off = off*t.Shape[d] + i
	}
	return off
}

// At reads an element.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.index(idx...)] }

// Set writes an element.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.index(idx...)] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// MatMulTransBInto computes a(m×k) · bᵀ into out(m×n), where b is
// stored pre-transposed as (n×k) so both operands stream row-major.
// Each output element is an independent sequential dot product over k —
// the same summation order as Dot — so results are bit-identical to
// per-row Dot calls regardless of tiling.
//
// The inner loops are register-tiled 2 rows × 4 columns: eight scalar
// accumulators live across the k-loop, which the Go compiler keeps in
// registers, amortizing each a-element load over four b-rows. out is
// fully overwritten and must not alias a or b.
func MatMulTransBInto(out, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMulTransBInto needs 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dims %d vs %d", k, k2))
	}
	if out.Dims() != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto out shape %v, want [%d %d]", out.Shape, m, n))
	}
	ad, bd, od := a.Data, b.Data, out.Data
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := ad[i*k : i*k+k]
		a1 := ad[(i+1)*k : (i+1)*k+k]
		o0 := od[i*n : i*n+n]
		o1 := od[(i+1)*n : (i+1)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*k : j*k+k]
			b1 := bd[(j+1)*k : (j+1)*k+k]
			b2 := bd[(j+2)*k : (j+2)*k+k]
			b3 := bd[(j+3)*k : (j+3)*k+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += float64(av0 * bv0)
				s01 += float64(av0 * bv1)
				s02 += float64(av0 * bv2)
				s03 += float64(av0 * bv3)
				s10 += float64(av1 * bv0)
				s11 += float64(av1 * bv1)
				s12 += float64(av1 * bv2)
				s13 += float64(av1 * bv3)
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := bd[j*k : j*k+k]
			var s0, s1 float64
			for p := 0; p < k; p++ {
				bv := brow[p]
				s0 += float64(a0[p] * bv)
				s1 += float64(a1[p] * bv)
			}
			o0[j], o1[j] = s0, s1
		}
	}
	for ; i < m; i++ {
		arow := ad[i*k : i*k+k]
		orow := od[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*k : j*k+k]
			b1 := bd[(j+1)*k : (j+1)*k+k]
			b2 := bd[(j+2)*k : (j+2)*k+k]
			b3 := bd[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := arow[p]
				s0 += float64(av * b0[p])
				s1 += float64(av * b1[p])
				s2 += float64(av * b2[p])
				s3 += float64(av * b3[p])
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			orow[j] = Dot(arow, bd[j*k:j*k+k])
		}
	}
}

// MatVecInto computes a(m×k) · x(k) into dst(m), reusing dst's storage.
// dst is fully overwritten and must not alias a or x.
func MatVecInto(dst []float64, a *Tensor, x []float64) {
	if a.Dims() != 2 || a.Shape[1] != len(x) {
		panic("tensor: MatVecInto shape mismatch")
	}
	m, k := a.Shape[0], a.Shape[1]
	if len(dst) != m {
		panic(fmt.Sprintf("tensor: MatVecInto dst length %d, want %d", len(dst), m))
	}
	for i := 0; i < m; i++ {
		dst[i] = Dot(a.Data[i*k:(i+1)*k], x)
	}
}

// Dot computes the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// SoftmaxInto writes the softmax of x into out (same length, fully
// overwritten). out may not alias x.
func SoftmaxInto(out, x []float64) {
	if len(out) != len(x) {
		panic("tensor: SoftmaxInto length mismatch")
	}
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ArgMax reports the index of the largest element (-1 for empty input).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}
