package tensor

import (
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float64()
	}
	return t
}

// The CNN classifier's product over one frame: 24 cells' pooled
// features (54 wide) against the 8 classes' weights, 24×54 · (8×54)ᵀ.
func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 24, 54)
	c := randTensor(rng, 8, 54)
	out := New(24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(out, a, c)
	}
}

// The same product over one detection flush of 8 frames' cells,
// 192×54 · (8×54)ᵀ.
func BenchmarkMatMulTransBBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 8*24, 54)
	c := randTensor(rng, 8, 54)
	out := New(8*24, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(out, a, c)
	}
}

func BenchmarkSoftmaxInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.Float64()
	}
	out := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxInto(out, x)
	}
}
