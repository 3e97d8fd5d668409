package nn

import (
	"math/rand"
	"testing"
)

func sliceEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSequentialCloneMatchesForward clones a dense → ReLU → dense stack
// layer by layer: the clones must compute the original's forward pass.
func TestSequentialCloneMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l1, l2 := NewDense(16, 8, rng), NewDense(8, 4, rng)
	c1, c2 := l1.Clone(), l2.Clone()
	forward := func(a, b *Dense, x []float64) []float64 {
		h := append([]float64(nil), a.Forward(x)...)
		for i, v := range h {
			if !(v > 0) {
				h[i] = 0
			}
		}
		return b.Forward(h)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	if !sliceEq(forward(l1, l2, x), forward(c1, c2, x)) {
		t.Fatal("cloned network diverges from original")
	}
}

func TestConv2DCloneMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConv2D(6, 6, 1, 2, 3, rng)
	x := make([]float64, 36)
	for i := range x {
		x[i] = rng.Float64()
	}
	if !sliceEq(c.ForwardReLU(x), c.Clone().ForwardReLU(x)) {
		t.Fatal("cloned conv diverges from original")
	}
}

func TestLSTMCloneIndependentState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLSTM(4, 6, rng)
	x := []float64{0.1, -0.2, 0.3, 1}

	// Pollute the original's recurrent state, then clone: the clone
	// must start from cleared state.
	l.Step(x)
	l.Step(x)
	clone := l.Clone()
	l.Reset()

	for i := 0; i < 5; i++ {
		if !sliceEq(l.Step(x), clone.Step(x)) {
			t.Fatalf("clone diverges at step %d", i)
		}
	}

	// Advancing the clone must not move the original.
	before := append([]float64(nil), l.h...)
	clone.Step(x)
	if !sliceEq(before, l.h) {
		t.Fatal("stepping the clone mutated the original's state")
	}
}
