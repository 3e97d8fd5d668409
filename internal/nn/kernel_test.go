package nn

import (
	"math"
	"math/rand"
	"testing"

	"pictor/internal/tensor"
)

// The property tests below compare the layers' kernels with plain
// reference loops kept here, bit for bit. The references follow the
// im2col → matmul → bias → ReLU pipeline the fused kernels replaced:
// each conv output is a dot product started at zero and summed in
// im2col column order (ky, then kx, then channel), then the bias is
// added, then ReLU keeps only values > 0. Every product is rounded
// before it is added, as the kernels round it.

// refConvReLU convolves `frames` stacked (h, w, inC) frames.
func refConvReLU(x, kw, bias []float64, frames, h, w, inC, outC, k int) []float64 {
	oh, ow := h-k+1, w-k+1
	depth := k * k * inC
	var out []float64
	for f := 0; f < frames; f++ {
		fr := x[f*h*w*inC : (f+1)*h*w*inC]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < outC; oc++ {
					var s float64
					col := 0
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							for c := 0; c < inC; c++ {
								s += float64(fr[((oy+ky)*w+ox+kx)*inC+c] * kw[oc*depth+col])
								col++
							}
						}
					}
					s += bias[oc]
					if !(s > 0) {
						s = 0
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// refPool is 2×2 stride-2 max pooling that keeps the first strictly
// greater element in scan order (0,0), (0,1), (1,0), (1,1).
func refPool(x []float64, frames, h, w, c int) []float64 {
	var out []float64
	for f := 0; f < frames; f++ {
		fr := x[f*h*w*c : (f+1)*h*w*c]
		for oy := 0; oy < h/2; oy++ {
			for ox := 0; ox < w/2; ox++ {
				for ch := 0; ch < c; ch++ {
					best := fr[((2*oy)*w+2*ox)*c+ch]
					for _, d := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
						if v := fr[((2*oy+d[0])*w+2*ox+d[1])*c+ch]; v > best {
							best = v
						}
					}
					out = append(out, best)
				}
			}
		}
	}
	return out
}

// refDense maps each of `rows` inputs through y = Wx + b, every output
// a dot product started at zero, then the bias.
func refDense(x, wt, bias []float64, rows, in, out int) []float64 {
	var y []float64
	for r := 0; r < rows; r++ {
		for o := 0; o < out; o++ {
			var s float64
			for i := 0; i < in; i++ {
				s += float64(x[r*in+i] * wt[o*in+i])
			}
			y = append(y, s+bias[o])
		}
	}
	return y
}

// refConvGrads accumulates the conv weight and bias gradients of one
// frame into wg and bg exactly as the im2col Conv2D.Backward did: rows
// (output positions) in order, channels in order within a row, zero
// gradients skipped, each product rounded before it is added. grad is
// dLoss/d(pre-activation output).
func refConvGrads(wg, bg, x, grad []float64, h, w, inC, outC, k int) {
	oh, ow := h-k+1, w-k+1
	depth := k * k * inC
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			r := oy*ow + ox
			for o := 0; o < outC; o++ {
				g := grad[r*outC+o]
				if g == 0 {
					continue
				}
				bg[o] += g
				col := 0
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						for c := 0; c < inC; c++ {
							wg[o*depth+col] += float64(g * x[((oy+ky)*w+ox+kx)*inC+c])
							col++
						}
					}
				}
			}
		}
	}
}

// specials are the IEEE edge cases every kernel must carry exactly as
// the reference does.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308,
}

// fillKernelInput fills xs with uniform values in [-1, 1) and, when
// edge is set, overwrites about one element in eight with a special.
func fillKernelInput(rng *rand.Rand, xs []float64, edge bool) {
	for i := range xs {
		xs[i] = rng.Float64()*2 - 1
		if edge && rng.Intn(8) == 0 {
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameBits reports whether a and b hold the same floats: equal bits,
// or both NaN (a NaN's payload carries no value).
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// kernelCase is one random layer geometry with its weights.
type kernelCase struct {
	h, w, inC, outC, k int
	edge               bool
}

var kernelCases = []kernelCase{
	{8, 8, 1, 6, 3, false}, // the intelligent client's detect geometry
	{8, 8, 1, 6, 3, true},
	{4, 4, 1, 3, 3, true},
	{6, 6, 2, 3, 3, true}, // the general (multi-channel) loop
	{5, 7, 3, 4, 2, false},
}

// TestKernelsMatchReference checks the fused conv (one frame and a
// batch), both pools and the dense forward against the reference loops,
// with random weights and inputs, plus IEEE specials in both.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for ci, kc := range kernelCases {
		for trial := 0; trial < 20; trial++ {
			conv := NewConv2D(kc.h, kc.w, kc.inC, kc.outC, kc.k, rng)
			fillKernelInput(rng, conv.w.W, kc.edge)
			fillKernelInput(rng, conv.b.W, kc.edge)
			for _, frames := range []int{1, 5} {
				frameLen := kc.h * kc.w * kc.inC
				x := tensor.New(frames, kc.h, kc.w, kc.inC)
				fillKernelInput(rng, x.Data, kc.edge)
				want := refConvReLU(x.Data, conv.w.W, conv.b.W, frames, kc.h, kc.w, kc.inC, kc.outC, kc.k)
				got := conv.ForwardBatchReLU(x).Data
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("case %d trial %d: batched conv of %d frames differs at %d: %v, reference %v", ci, trial, frames, i, got[i], want[i])
				}
				outLen := conv.OutLen()
				for f := 0; f < frames; f++ {
					got := conv.ForwardReLU(x.Data[f*frameLen : (f+1)*frameLen])
					if i, ok := sameBits(got, want[f*outLen:(f+1)*outLen]); !ok {
						t.Fatalf("case %d trial %d frame %d: one-frame conv differs at %d: %v, reference %v", ci, trial, f, i, got[i], want[f*outLen+i])
					}
				}
			}
		}
	}
	for ci, kc := range kernelCases {
		if kc.h%2 != 0 || kc.w%2 != 0 {
			continue
		}
		pool := NewMaxPool2(kc.h, kc.w, kc.outC)
		for trial := 0; trial < 20; trial++ {
			const frames = 4
			frameLen := kc.h * kc.w * kc.outC
			x := tensor.New(frames*kc.h*kc.w, kc.outC)
			fillKernelInput(rng, x.Data, kc.edge)
			// Ties must keep the first in scan order: copy some values
			// across each window.
			for i := 0; i+kc.outC < len(x.Data); i += 7 {
				x.Data[i+kc.outC] = x.Data[i]
			}
			want := refPool(x.Data, frames, kc.h, kc.w, kc.outC)
			if i, ok := sameBits(pool.ForwardBatch(x).Data, want); !ok {
				t.Fatalf("case %d trial %d: batched pool differs at %d", ci, trial, i)
			}
			for f := 0; f < frames; f++ {
				got := pool.Forward(x.Data[f*frameLen : (f+1)*frameLen])
				wantF := want[f*pool.OutLen() : (f+1)*pool.OutLen()]
				if i, ok := sameBits(got, wantF); !ok {
					t.Fatalf("case %d trial %d frame %d: one-frame pool differs at %d", ci, trial, f, i)
				}
			}
		}
	}
	for _, edge := range []bool{false, true} {
		for trial := 0; trial < 20; trial++ {
			in, out := 1+rng.Intn(60), 1+rng.Intn(10)
			d := NewDense(in, out, rng)
			fillKernelInput(rng, d.w.W, edge)
			fillKernelInput(rng, d.b.W, edge)
			const rows = 7
			x := tensor.New(rows, in)
			fillKernelInput(rng, x.Data, edge)
			want := refDense(x.Data, d.w.W, d.b.W, rows, in, out)
			if i, ok := sameBits(d.ForwardBatch(x).Data, want); !ok {
				t.Fatalf("dense %d→%d trial %d: batched forward differs at %d", in, out, trial, i)
			}
			for r := 0; r < rows; r++ {
				got := d.Forward(x.Data[r*in : (r+1)*in])
				if i, ok := sameBits(got, want[r*out:(r+1)*out]); !ok {
					t.Fatalf("dense %d→%d trial %d row %d: forward differs at %d", in, out, trial, r, i)
				}
			}
		}
	}
}

// TestConvWeightGradsMatchReference checks the weights-only conv
// backward against the reference, bit for bit, with several frames
// accumulating into the gradients before they are read, as training
// accumulates several examples before one Adam step. The reference
// applies ReLU's mask from its own forward pass.
func TestConvWeightGradsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for ci, kc := range kernelCases {
		for trial := 0; trial < 10; trial++ {
			conv := NewConv2D(kc.h, kc.w, kc.inC, kc.outC, kc.k, rng)
			fillKernelInput(rng, conv.w.W, false)
			wg := make([]float64, len(conv.w.W))
			bg := make([]float64, len(conv.b.W))
			// Start from nonzero accumulated gradients, as after the
			// first examples of a step.
			fillKernelInput(rng, conv.w.G, false)
			fillKernelInput(rng, conv.b.G, false)
			copy(wg, conv.w.G)
			copy(bg, conv.b.G)
			for sample := 0; sample < 4; sample++ {
				x := make([]float64, kc.h*kc.w*kc.inC)
				fillKernelInput(rng, x, kc.edge)
				grad := make([]float64, conv.OutLen())
				fillKernelInput(rng, grad, kc.edge)
				// Most gradients reaching the conv are zero: the pool
				// passes one per window and ReLU masks more.
				for i := range grad {
					if rng.Intn(3) != 0 {
						grad[i] = 0
					}
				}
				y := refConvReLU(x, conv.w.W, conv.b.W, 1, kc.h, kc.w, kc.inC, kc.outC, kc.k)
				masked := make([]float64, len(grad))
				for i, g := range grad {
					if y[i] > 0 {
						masked[i] = g
					}
				}
				refConvGrads(wg, bg, x, masked, kc.h, kc.w, kc.inC, kc.outC, kc.k)
				conv.ForwardReLU(x)
				conv.BackwardReLU(grad)
			}
			if i, ok := sameBits(conv.w.G, wg); !ok {
				t.Fatalf("case %d trial %d: weight gradient %d = %v, reference %v", ci, trial, i, conv.w.G[i], wg[i])
			}
			if i, ok := sameBits(conv.b.G, bg); !ok {
				t.Fatalf("case %d trial %d: bias gradient %d = %v, reference %v", ci, trial, i, conv.b.G[i], bg[i])
			}
		}
	}
}
