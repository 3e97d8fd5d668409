package nn

import (
	"math/rand"
	"testing"
)

// Per-call hot leaves of the intelligent client's inference path (the
// CNN runs once per grid cell per frame, the LSTM once per frame). Run
// with -benchmem; allocs/op here multiply by thousands of frames per
// simulated trial.

func benchInput(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func BenchmarkDenseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(54, 8, rng)
	x := benchInput(54, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(8, 8, 1, 6, 3, rng)
	x := benchInput(64, 2)
	grad := benchInput(c.OutLen(), 3)
	c.ForwardReLU(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BackwardReLU(grad)
	}
}

func BenchmarkMaxPool2Forward(b *testing.B) {
	p := NewMaxPool2(6, 6, 6)
	x := benchInput(6*6*6, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(9, 14, rng)
	x := benchInput(9, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(x)
	}
}
