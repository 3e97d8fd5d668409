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

// A 36×9 · (6×9)ᵀ product: one cell's receptive-field rows against a
// 3×3 kernel of six channels.
func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 36, 9)
	c := randTensor(rng, 6, 9)
	out := New(36, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(out, a, c)
	}
}

// The same product over 32 cells' rows at once.
func BenchmarkMatMulTransBBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 32*36, 9)
	c := randTensor(rng, 6, 9)
	out := New(32*36, 6)
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
