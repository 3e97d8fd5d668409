package nn

import (
	"math"
	"math/rand"
	"testing"

	"pictor/internal/tensor"
)

func TestLSTMStepShapeAndState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 5, rng)
	// Step returns model-owned scratch; copy to compare across steps.
	h1 := append([]float64(nil), l.Step([]float64{1, 0, 0})...)
	if len(h1) != 5 {
		t.Fatalf("hidden size = %d, want 5", len(h1))
	}
	h2 := append([]float64(nil), l.Step([]float64{1, 0, 0})...)
	same := true
	for i := range h1 {
		if h1[i] != h2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("recurrent state had no effect: identical inputs gave identical outputs")
	}
	l.Reset()
	h3 := l.Step([]float64{1, 0, 0})
	for i := range h1 {
		if h1[i] != h3[i] {
			t.Fatal("Reset did not restore initial state")
		}
	}
}

func TestLSTMInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("input size mismatch did not panic")
		}
	}()
	NewLSTM(3, 4, rand.New(rand.NewSource(1))).Step([]float64{1})
}

func TestLSTMHiddenBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(2, 4, rng)
	for i := 0; i < 200; i++ {
		h := l.Step([]float64{5, -5})
		for _, v := range h {
			if math.Abs(v) > 1 {
				t.Fatalf("hidden value %v outside tanh×sigmoid bound", v)
			}
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(2, 3, rng)
	seq := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	// Loss: sum of hidden[0] over all steps (simple linear functional).
	run := func() float64 {
		l.Reset()
		var loss float64
		for _, x := range seq {
			h := l.Step(x)
			loss += h[0]
		}
		return loss
	}
	run()
	dHs := make([][]float64, len(seq))
	for i := range dHs {
		dHs[i] = make([]float64, 3)
		dHs[i][0] = 1
	}
	l.Backward(dHs)
	p := l.Params()[0]
	// Spot-check a spread of weight indices.
	for _, idx := range []int{0, 5, 11, 17, 23, len(p.W) - 1} {
		analytic := p.G[idx]
		want := numGrad(run, &p.W[idx])
		if math.Abs(analytic-want) > 1e-4 {
			t.Fatalf("lstm grad[%d] = %v, numeric %v", idx, analytic, want)
		}
	}
}

func TestLSTMLearnsSequencePattern(t *testing.T) {
	// Task: output class 1 exactly when the previous input was [1,0]
	// (requires memory — a memoryless model cannot do it).
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(2, 8, rng)
	head := NewDense(8, 2, rng)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(params, 0.02)

	seqLen := 12
	makeSeq := func(r *rand.Rand) ([][]float64, []int) {
		xs := make([][]float64, seqLen)
		labels := make([]int, seqLen)
		prevWasA := false
		for i := range xs {
			if r.Intn(2) == 0 {
				xs[i] = []float64{1, 0}
			} else {
				xs[i] = []float64{0, 1}
			}
			if prevWasA {
				labels[i] = 1
			}
			prevWasA = xs[i][0] == 1
		}
		return xs, labels
	}

	dataRng := rand.New(rand.NewSource(5))
	for epoch := 0; epoch < 120; epoch++ {
		xs, labels := makeSeq(dataRng)
		l.Reset()
		dHs := make([][]float64, seqLen)
		for i, x := range xs {
			h := l.Step(x)
			logits := head.Forward(h)
			g := make([]float64, len(logits))
			SoftmaxCrossEntropy(g, logits, labels[i])
			// Backward returns layer-owned scratch; BPTT retains per step.
			dHs[i] = append([]float64(nil), head.Backward(g)...)
		}
		l.Backward(dHs)
		opt.Step()
	}

	// Evaluate on fresh sequences, through the inference step.
	evalRng := rand.New(rand.NewSource(99))
	correct, total := 0, 0
	h, c := make([]float64, 8), make([]float64, 8)
	for trial := 0; trial < 10; trial++ {
		xs, labels := makeSeq(evalRng)
		clear(h)
		clear(c)
		for i, x := range xs {
			l.StepState(h, c, x)
			if tensor.ArgMax(head.Forward(h)) == labels[i] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("LSTM accuracy on memory task = %.2f, want ≥ 0.9", acc)
	}
}

func TestLSTMBackwardCountMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM(2, 3, rng)
	l.Step([]float64{1, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched BPTT grads did not panic")
		}
	}()
	l.Backward(make([][]float64, 5))
}

// TestLSTMStepStateMatchesStep runs one sequence through the training
// step and through the inference step over caller-owned rows: the
// hidden states must be equal bit for bit.
func TestLSTMStepStateMatchesStep(t *testing.T) {
	l := NewLSTM(4, 6, rand.New(rand.NewSource(8)))
	h, c := make([]float64, 6), make([]float64, 6)
	for i := 0; i < 5; i++ {
		x := benchInput(4, int64(i))
		want := l.Step(x)
		l.StepState(h, c, x)
		for j := range want {
			if math.Float64bits(h[j]) != math.Float64bits(want[j]) {
				t.Fatalf("step %d unit %d: StepState %g, Step %g", i, j, h[j], want[j])
			}
		}
	}
}

// TestLSTMTrainingAllocatesNothing pins the flat BPTT cache: once one
// sequence has sized it, a 24-step sequence and its Backward allocate
// nothing.
func TestLSTMTrainingAllocatesNothing(t *testing.T) {
	l := NewLSTM(9, 14, rand.New(rand.NewSource(7)))
	x := benchInput(9, 2)
	dHs := make([][]float64, 24)
	for i := range dHs {
		dHs[i] = benchInput(14, int64(i))
	}
	sequence := func() {
		l.Reset()
		for range dHs {
			l.Step(x)
		}
		l.Backward(dHs)
	}
	sequence()
	if a := testing.AllocsPerRun(10, sequence); a != 0 {
		t.Fatalf("a warmed training sequence allocates %v objects, want 0", a)
	}
}
