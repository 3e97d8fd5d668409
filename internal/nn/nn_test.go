package nn

import (
	"math"
	"math/rand"
	"testing"

	"pictor/internal/tensor"
)

// crossEntropy returns the loss of one example and dLoss/dLogits.
func crossEntropy(logits []float64, label int) (float64, []float64) {
	g := make([]float64, len(logits))
	return SoftmaxCrossEntropy(g, logits, label), g
}

// numGrad estimates dLoss/dW numerically for gradient checking.
func numGrad(f func() float64, w *float64) float64 {
	const eps = 1e-5
	orig := *w
	*w = orig + eps
	up := f()
	*w = orig - eps
	down := f()
	*w = orig
	return (up - down) / (2 * eps)
}

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	out := d.Forward([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output size = %d, want 2", len(out))
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewDense(3, 2, rand.New(rand.NewSource(1))).Forward([]float64{1})
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(4, 3, rng)
	x := []float64{0.5, -0.3, 0.8, 0.1}
	label := 1
	loss := func() float64 {
		l, _ := crossEntropy(d.Forward(x), label)
		return l
	}
	// Analytic gradients.
	_, g := crossEntropy(d.Forward(x), label)
	d.Backward(g)
	for _, p := range d.Params() {
		for i := range p.W {
			want := numGrad(loss, &p.W[i])
			if math.Abs(p.G[i]-want) > 1e-4 {
				t.Fatalf("dense grad[%d] = %v, numeric %v", i, p.G[i], want)
			}
		}
	}
}

func TestDenseBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(3, 2, rng)
	x := []float64{0.2, -0.4, 0.9}
	label := 0
	loss := func(xv []float64) float64 {
		l, _ := crossEntropy(d.Forward(xv), label)
		return l
	}
	_, g := crossEntropy(d.Forward(x), label)
	dx := d.Backward(g)
	for i := range x {
		want := numGrad(func() float64 { return loss(x) }, &x[i])
		if math.Abs(dx[i]-want) > 1e-4 {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, dx[i], want)
		}
	}
}

// TestReLU checks the ReLU fused into the convolution: the output keeps
// only pre-activations > 0 (NaN and -0 give +0), and the backward pass
// lets a gradient through only where the output is > 0.
func TestReLU(t *testing.T) {
	// A 1×1 output whose pre-activation is the input's first pixel.
	c := NewConv2D(3, 3, 1, 1, 3, rand.New(rand.NewSource(1)))
	for i := range c.w.W {
		c.w.W[i] = 0
	}
	c.w.W[0], c.b.W[0] = 1, 0
	x := make([]float64, 9)
	for _, tc := range []struct{ pre, out float64 }{
		{-1, 0}, {math.Copysign(0, -1), 0}, {0, 0}, {math.NaN(), 0}, {math.Inf(-1), 0}, {2, 2}, {math.Inf(1), math.Inf(1)},
	} {
		x[0] = tc.pre
		out := c.ForwardReLU(x)
		if math.Float64bits(out[0]) != math.Float64bits(tc.out) {
			t.Fatalf("relu forward of %v = %v, want %v", tc.pre, out[0], tc.out)
		}
		c.w.G[0], c.b.G[0] = 0, 0
		c.BackwardReLU([]float64{1})
		wantW, wantB := 0.0, 0.0
		if tc.out > 0 {
			wantW, wantB = tc.pre, 1
		}
		if c.w.G[0] != wantW || c.b.G[0] != wantB {
			t.Fatalf("relu backward of %v: weight grad %v, bias grad %v", tc.pre, c.w.G[0], c.b.G[0])
		}
	}
}

func TestConv2DOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(8, 8, 1, 4, 3, rng)
	if c.OutH() != 6 || c.OutW() != 6 || c.OutLen() != 6*6*4 {
		t.Fatalf("conv out dims wrong: %d×%d×%d", c.OutH(), c.OutW(), c.OutC)
	}
	out := c.ForwardReLU(make([]float64, 64))
	if len(out) != c.OutLen() {
		t.Fatalf("conv out len = %d, want %d", len(out), c.OutLen())
	}
}

func TestConv2DGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(4, 4, 1, 2, 3, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	label := 3
	loss := func() float64 {
		l, _ := crossEntropy(c.ForwardReLU(x), label)
		return l
	}
	_, g := crossEntropy(c.ForwardReLU(x), label)
	c.BackwardReLU(g)
	for _, p := range c.Params() {
		for i := range p.W {
			want := numGrad(loss, &p.W[i])
			if math.Abs(p.G[i]-want) > 1e-4 {
				t.Fatalf("conv grad[%d] = %v, numeric %v", i, p.G[i], want)
			}
		}
	}
}

func TestMaxPool2(t *testing.T) {
	p := NewMaxPool2(2, 2, 1)
	out := p.Forward([]float64{1, 3, 2, 0})
	if len(out) != 1 || out[0] != 3 {
		t.Fatalf("pool forward = %v, want [3]", out)
	}
	dx := p.Backward([]float64{1})
	if dx[1] != 1 || dx[0] != 0 {
		t.Fatalf("pool backward = %v, want grad at argmax only", dx)
	}
}

func TestMaxPool2OddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pool dims did not panic")
		}
	}()
	NewMaxPool2(3, 2, 1)
}

// TestSequentialLearnsXOR trains a dense → ReLU → dense stack on XOR,
// its layers driven in sequence.
func TestSequentialLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l1, l2 := NewDense(2, 8, rng), NewDense(8, 2, rng)
	hidden := make([]float64, 8)
	forward := func(x []float64) []float64 {
		for i, v := range l1.Forward(x) {
			hidden[i] = math.Max(v, 0)
		}
		return l2.Forward(hidden)
	}
	opt := NewAdam(append(l1.Params(), l2.Params()...), 0.01)
	data := [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 400; epoch++ {
		for i, d := range data {
			_, g := crossEntropy(forward(d[:]), labels[i])
			dh := l2.Backward(g)
			for j, h := range hidden {
				if !(h > 0) {
					dh[j] = 0
				}
			}
			l1.Backward(dh)
			opt.Step()
		}
	}
	for i, d := range data {
		logits := forward(d[:])
		if tensor.ArgMax(logits) != labels[i] {
			t.Fatalf("XOR not learned: input %v → %v, want class %d", d, logits, labels[i])
		}
	}
}

func TestCNNLearnsPatterns(t *testing.T) {
	// A conv+pool+dense stack must separate two 4×4 patterns.
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D(4, 4, 1, 4, 3, rng)
	pool := NewMaxPool2(2, 2, 4)
	dense := NewDense(pool.OutLen(), 2, rng)
	forward := func(x []float64) []float64 {
		return dense.Forward(pool.Forward(conv.ForwardReLU(x)))
	}
	opt := NewAdam(append(conv.Params(), dense.Params()...), 0.01)
	cross := []float64{1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1}
	box := []float64{1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1}
	for epoch := 0; epoch < 150; epoch++ {
		for i, x := range [][]float64{cross, box} {
			_, g := crossEntropy(forward(x), i)
			conv.BackwardReLU(pool.Backward(dense.Backward(g)))
			opt.Step()
		}
	}
	if tensor.ArgMax(forward(cross)) != 0 || tensor.ArgMax(forward(box)) != 1 {
		t.Fatal("CNN failed to separate two trivially different patterns")
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	_, g := crossEntropy([]float64{0.3, -0.2, 1.4}, 2)
	var sum float64
	for _, v := range g {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("CE gradient sums to %v, want 0", sum)
	}
}

func TestAdamClipBoundsGradient(t *testing.T) {
	p := newParam(2)
	p.G[0], p.G[1] = 1e6, 1e6
	opt := NewAdam([]*Param{p}, 0.1)
	opt.Step()
	if math.Abs(p.W[0]) > 1 {
		t.Fatalf("clipped Adam step moved weight to %v", p.W[0])
	}
	if p.G[0] != 0 {
		t.Fatal("gradients not zeroed after step")
	}
}

// TestBatchForwardAllocatesNothing pins the batched inference layers'
// scratch reuse: once warmed at the largest batch, a forward pass at that
// batch or a smaller one allocates nothing.
func TestBatchForwardAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(8, 8, 1, 4, 3, rng)
	pool := NewMaxPool2(conv.OutH(), conv.OutW(), 4)
	dense := NewDense(pool.OutLen(), 5, rng)
	big := tensor.New(6, 8, 8, 1)
	for i := range big.Data {
		big.Data[i] = rng.Float64()
	}
	small := tensor.FromSlice(big.Data[:3*8*8], 3, 8, 8, 1)
	forward := func(x *tensor.Tensor) {
		dense.ForwardBatch(pool.ForwardBatch(conv.ForwardBatchReLU(x)))
	}
	forward(big)
	for _, x := range []*tensor.Tensor{big, small} {
		if a := testing.AllocsPerRun(20, func() { forward(x) }); a != 0 {
			t.Fatalf("a warmed batched forward of %d frames allocates %v objects, want 0", x.Shape[0], a)
		}
	}
}
