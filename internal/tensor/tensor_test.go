package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	m := New(2, 3)
	if m.Len() != 6 || m.Dims() != 2 {
		t.Fatalf("shape wrong: len=%d dims=%d", m.Len(), m.Dims())
	}
	m.Set(5, 1, 2)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("fresh tensor not zeroed")
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dimension did not panic")
		}
	}()
	New(2, 0)
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(data, 2, 3)
	if m.At(1, 0) != 4 {
		t.Fatalf("row-major layout wrong: At(1,0) = %v", m.At(1, 0))
	}
	// No copy: mutations are visible both ways.
	data[0] = 9
	if m.At(0, 0) != 9 {
		t.Fatal("FromSlice should wrap, not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

// matMul is the textbook product a(m×k) · b(k×n), each element a dot
// product started at zero: the reference for MatMulTransBInto.
func matMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p] * b.Data[p*n+j])
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	// (3, 2) operand [[7 8] [9 10] [11 12]], stored transposed.
	bt := FromSlice([]float64{7, 9, 11, 8, 10, 12}, 2, 3)
	c := New(2, 2)
	MatMulTransBInto(c, a, bt)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulTransBInto = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("output shape mismatch did not panic")
		}
	}()
	MatMulTransBInto(New(2, 3), New(2, 4), New(2, 4))
}

func TestMatVecInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := make([]float64, 2)
	MatVecInto(got, a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MatVecInto = %v, want [-2 -2]", got)
	}
}

func TestMatVecIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dst length mismatch did not panic")
		}
	}()
	MatVecInto(make([]float64, 3), New(2, 3), make([]float64, 3))
}

// MatMulTransBInto must match per-row Dot calls bit-for-bit across all
// tile paths: 2×4 body, leftover row, leftover columns. Shapes are
// chosen so every remainder branch executes.
func TestMatMulTransBBitIdenticalToDot(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 4, 9}, {3, 5, 7}, {36, 6, 9}, {5, 9, 3}, {4, 4, 1}} {
		m, n, k := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(n, k)
		seed := 1.0
		for i := range a.Data {
			seed = math.Mod(seed*997+13, 1009)
			a.Data[i] = seed/100 - 5
		}
		for i := range b.Data {
			seed = math.Mod(seed*991+7, 1013)
			b.Data[i] = seed/100 - 5
		}
		out := New(m, n)
		MatMulTransBInto(out, a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := Dot(a.Data[i*k:(i+1)*k], b.Data[j*k:(j+1)*k])
				if out.At(i, j) != want {
					t.Fatalf("m=%d n=%d k=%d: out[%d][%d] = %v, want Dot = %v", m, n, k, i, j, out.At(i, j), want)
				}
			}
		}
	}
}

func TestMatMulTransBMatchesMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	// b transposed to (2, 3) row-major.
	bt := FromSlice([]float64{7, 9, 11, 8, 10, 12}, 2, 3)
	want := matMul(a, b)
	got := New(2, 2)
	MatMulTransBInto(got, a, bt)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("MatMulTransBInto = %v, want %v", got.Data, want.Data)
		}
	}
}

func TestMatMulTransBShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inner-dim mismatch did not panic")
		}
	}()
	MatMulTransBInto(New(2, 2), New(2, 3), New(2, 4))
}

// softmax returns SoftmaxInto's result in a fresh slice.
func softmax(x []float64) []float64 {
	out := make([]float64, len(x))
	SoftmaxInto(out, x)
	return out
}

func TestSoftmax(t *testing.T) {
	p := softmax([]float64{1, 1, 1})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Large logits must not overflow.
	p = softmax([]float64{1000, 0})
	if math.IsNaN(p[0]) || p[0] < 0.999 {
		t.Fatalf("softmax unstable: %v", p)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax of empty should be -1")
	}
}

// Property: softmax output sums to 1 and every entry is in (0, 1].
func TestSoftmaxNormalizedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 50))
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := softmax(xs)
		var sum float64
		for _, v := range p {
			if v <= 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a product with the identity returns the original.
func TestMatMulIdentityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		n := 3
		if len(raw) < n*n {
			return true
		}
		data := make([]float64, n*n)
		for i := range data {
			v := raw[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			data[i] = v
		}
		a := FromSlice(data, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		c := New(n, n)
		MatMulTransBInto(c, a, id)
		for i := range c.Data {
			if c.Data[i] != a.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
