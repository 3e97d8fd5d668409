// Package nn is a from-scratch neural-network library (pure Go, stdlib
// only) providing the layers Pictor's intelligent client needs: dense,
// 2-D convolution, pooling, ReLU, softmax classification, and an LSTM
// with backpropagation-through-time. It stands in for the paper's
// TensorFlow MobileNets/LSTM stack.
package nn

import (
	"math"
	"math/rand"

	"pictor/internal/tensor"
)

// Param is one learnable weight array with its gradient accumulator.
type Param struct {
	W []float64
	G []float64
	// Adam moments.
	m, v []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

func (p *Param) zeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// initUniform fills weights with the fan-in-scaled uniform init.
func (p *Param) initUniform(rng *rand.Rand, fanIn int) {
	scale := math.Sqrt(2.0 / float64(fanIn))
	for i := range p.W {
		// Float64 divides by 2⁶³, which compiles to a multiply; the
		// conversion keeps that multiply out of a fused subtraction.
		p.W[i] = (float64(rng.Float64())*2 - 1) * scale
	}
}

// grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growZero returns buf resized to n elements with every element zeroed.
func growZero(buf []float64, n int) []float64 {
	buf = grow(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Dense is a fully connected layer: y = Wx + b.
type Dense struct {
	In, Out  int
	w, b     *Param
	lastX    []float64
	out, dx  []float64      // owned scratch, reused across calls
	wT       *tensor.Tensor // cached (Out, In) header over w.W
	batchOut *tensor.Tensor // owned batch scratch
}

// NewDense creates a dense layer with fan-in initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(in * out), b: newParam(out)}
	d.w.initUniform(rng, in)
	return d
}

// weightT returns the cached (Out, In) tensor view of the weights —
// already the transposed-B layout MatMulTransBInto wants.
func (d *Dense) weightT() *tensor.Tensor {
	if d.wT == nil {
		d.wT = tensor.FromSlice(d.w.W, d.Out, d.In)
	}
	return d.wT
}

// Forward maps x through the layer, returning layer-owned scratch
// overwritten by the next call, and keeps x for Backward.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic("nn: Dense input size mismatch")
	}
	d.lastX = append(d.lastX[:0], x...)
	out := grow(d.out, d.Out)
	d.out = out
	tensor.MatVecInto(out, d.weightT(), x)
	for o, bv := range d.b.W {
		out[o] += bv
	}
	return out
}

// ForwardBatch maps a (B, In) batch to the layer-owned (B, Out) output
// in one transposed matmul. Row r equals Forward(x row r) bit-for-bit:
// the per-element summation order is Dot's, and the bias add commutes.
// Inference only (no Backward cache); the result is overwritten by the
// next ForwardBatch call.
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Shape[1] != d.In {
		panic("nn: Dense batch input shape mismatch")
	}
	bn := x.Shape[0]
	out := tensor.Ensure(d.batchOut, bn, d.Out)
	d.batchOut = out
	tensor.MatMulTransBInto(out, x, d.weightT())
	for r := 0; r < bn; r++ {
		row := out.Data[r*d.Out : (r+1)*d.Out]
		for o, bv := range d.b.W {
			row[o] += bv
		}
	}
	return out
}

// Backward receives dLoss/dOutput for the last Forward, accumulates the
// parameter gradients and returns dLoss/dInput (layer-owned scratch).
func (d *Dense) Backward(grad []float64) []float64 {
	dx := growZero(d.dx, d.In)
	d.dx = dx
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		if g == 0 {
			continue
		}
		d.b.G[o] += g
		row := d.w.W[o*d.In : (o+1)*d.In]
		grow := d.w.G[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += float64(g * d.lastX[i])
			dx[i] += float64(g * row[i])
		}
	}
	return dx
}

// Params lists the weights, then the biases.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Conv2D is a valid-padding, stride-1 convolution over an (H, W, C)
// input producing (H-k+1, W-k+1, OutC), with the ReLU activation fused
// into its output. It is the first layer of the intelligent client's
// CNN, so its backward pass computes no input gradient.
type Conv2D struct {
	H, W, InC, OutC, K int
	w, b               *Param
	lastX, out         []float64      // one-frame input and output, kept for BackwardReLU
	batchOut           *tensor.Tensor // owned batch scratch
}

// NewConv2D creates a convolution layer.
func NewConv2D(h, w, inC, outC, k int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{H: h, W: w, InC: inC, OutC: outC, K: k,
		w: newParam(k * k * inC * outC), b: newParam(outC)}
	c.w.initUniform(rng, k*k*inC)
	return c
}

// OutH reports the output height.
func (c *Conv2D) OutH() int { return c.H - c.K + 1 }

// OutW reports the output width.
func (c *Conv2D) OutW() int { return c.W - c.K + 1 }

// OutLen reports the flattened output length.
func (c *Conv2D) OutLen() int { return c.OutH() * c.OutW() * c.OutC }

// ForwardReLU convolves one flattened (H, W, C) frame and applies ReLU,
// returning the layer-owned flattened (OutH, OutW, OutC) output. It is
// ForwardBatchReLU's kernel on a batch of one, and it keeps the input
// and the output for BackwardReLU; both are overwritten by the next
// call.
func (c *Conv2D) ForwardReLU(x []float64) []float64 {
	if len(x) != c.H*c.W*c.InC {
		panic("nn: Conv2D input size mismatch")
	}
	c.lastX = append(c.lastX[:0], x...)
	c.out = grow(c.out, c.OutLen())
	c.convDirect(c.out, x, 1)
	return c.out
}

// ForwardBatchReLU convolves a (B, H, W, C) batch and applies ReLU,
// returning the layer-owned (B·OutH·OutW, OutC) output: frame b's rows
// occupy the contiguous block starting at b·OutH·OutW, equal bit for
// bit to ForwardReLU on that frame alone. Inference only; the result is
// overwritten by the next call.
func (c *Conv2D) ForwardBatchReLU(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 4 || x.Shape[1] != c.H || x.Shape[2] != c.W || x.Shape[3] != c.InC {
		panic("nn: Conv2D batch input shape mismatch")
	}
	bn := x.Shape[0]
	rows := bn * c.OutH() * c.OutW()
	out := tensor.Ensure(c.batchOut, rows, c.OutC)
	c.batchOut = out
	c.convDirect(out.Data, x.Data, bn)
	return out
}

// convDirect convolves `frames` stacked (H, W, C) frames in src into
// dst ((frames·OutH·OutW, OutC) row-major). Per output element it sums
// the K·K·InC products from zero in receptive-field order (ky-major,
// then kx, then channel), then adds the channel bias, then applies
// ReLU: bit-identical to convolving through an im2col column matrix and
// a matmul, without writing and re-reading the column matrix.
func (c *Conv2D) convDirect(dst, src []float64, frames int) {
	oh, ow := c.OutH(), c.OutW()
	kw := c.K * c.InC // receptive-field row-segment width
	kmat := c.w.W     // (OutC, K·K·InC) row-major
	bias := c.b.W
	frameLen := c.H * c.W * c.InC
	rowStride := c.W * c.InC
	di := 0
	if c.K == 3 && c.InC == 1 {
		// The detect geometry (3×3 kernel over one channel): the nine
		// receptive-field taps are loaded once per position and the
		// nine-term dot is fully unrolled.
		for f := 0; f < frames; f++ {
			fr := src[f*frameLen : (f+1)*frameLen]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					base := oy*rowStride + ox
					r0 := fr[base : base+3]
					r1 := fr[base+rowStride : base+rowStride+3]
					r2 := fr[base+2*rowStride : base+2*rowStride+3]
					p0, p1, p2 := r0[0], r0[1], r0[2]
					p3, p4, p5 := r1[0], r1[1], r1[2]
					p6, p7, p8 := r2[0], r2[1], r2[2]
					for oc := 0; oc < c.OutC; oc++ {
						k := kmat[oc*9 : oc*9+9]
						// Nine sequential += terms from a zero start.
						var s float64
						s += float64(p0 * k[0])
						s += float64(p1 * k[1])
						s += float64(p2 * k[2])
						s += float64(p3 * k[3])
						s += float64(p4 * k[4])
						s += float64(p5 * k[5])
						s += float64(p6 * k[6])
						s += float64(p7 * k[7])
						s += float64(p8 * k[8])
						s += bias[oc]
						if !(s > 0) {
							s = 0
						}
						dst[di+oc] = s
					}
					di += c.OutC
				}
			}
		}
		return
	}
	for f := 0; f < frames; f++ {
		fr := src[f*frameLen : (f+1)*frameLen]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := oy*rowStride + ox*c.InC
				for oc := 0; oc < c.OutC; oc++ {
					krow := kmat[oc*c.K*kw : (oc+1)*c.K*kw]
					var s float64
					for ky := 0; ky < c.K; ky++ {
						seg := fr[base+ky*rowStride : base+ky*rowStride+kw]
						kk := krow[ky*kw : ky*kw+kw]
						for i, v := range seg {
							s += float64(v * kk[i])
						}
					}
					s += bias[oc]
					if !(s > 0) {
						s = 0
					}
					dst[di+oc] = s
				}
				di += c.OutC
			}
		}
	}
}

// BackwardReLU receives dLoss/dOutput for the last ForwardReLU and
// accumulates the weight and bias gradients. ReLU passes a gradient
// only where the stored output is > 0, which is exactly where the
// pre-activation was (a NaN pre-activation stored 0). Zero gradients
// are skipped, and every gradient element sums its terms in output-row
// order, as an im2col backward pass does; no input gradient is
// computed.
func (c *Conv2D) BackwardReLU(grad []float64) {
	if len(grad) != c.OutLen() {
		panic("nn: Conv2D gradient size mismatch")
	}
	oh, ow := c.OutH(), c.OutW()
	x, y := c.lastX, c.out
	rowStride := c.W * c.InC
	if c.K == 3 && c.InC == 1 {
		// Channel-major: each channel's nine weight sums and its bias
		// sum stay in registers across the output rows.
		for o := 0; o < c.OutC; o++ {
			wg := c.w.G[o*9 : o*9+9]
			s0, s1, s2 := wg[0], wg[1], wg[2]
			s3, s4, s5 := wg[3], wg[4], wg[5]
			s6, s7, s8 := wg[6], wg[7], wg[8]
			sb := c.b.G[o]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i := (oy*ow+ox)*c.OutC + o
					g := grad[i]
					if g == 0 || !(y[i] > 0) {
						continue
					}
					sb += g
					base := oy*rowStride + ox
					r0 := x[base : base+3]
					r1 := x[base+rowStride : base+rowStride+3]
					r2 := x[base+2*rowStride : base+2*rowStride+3]
					s0 += float64(g * r0[0])
					s1 += float64(g * r0[1])
					s2 += float64(g * r0[2])
					s3 += float64(g * r1[0])
					s4 += float64(g * r1[1])
					s5 += float64(g * r1[2])
					s6 += float64(g * r2[0])
					s7 += float64(g * r2[1])
					s8 += float64(g * r2[2])
				}
			}
			wg[0], wg[1], wg[2] = s0, s1, s2
			wg[3], wg[4], wg[5] = s3, s4, s5
			wg[6], wg[7], wg[8] = s6, s7, s8
			c.b.G[o] = sb
		}
		return
	}
	depth := c.K * c.K * c.InC
	kw := c.K * c.InC
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := oy*rowStride + ox*c.InC
			for o := 0; o < c.OutC; o++ {
				i := (oy*ow+ox)*c.OutC + o
				g := grad[i]
				if g == 0 || !(y[i] > 0) {
					continue
				}
				c.b.G[o] += g
				wg := c.w.G[o*depth : (o+1)*depth]
				for ky := 0; ky < c.K; ky++ {
					seg := x[base+ky*rowStride : base+ky*rowStride+kw]
					gk := wg[ky*kw : ky*kw+kw]
					for j, v := range seg {
						gk[j] += float64(g * v)
					}
				}
			}
		}
	}
}

// Params lists the kernel weights, then the biases.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPool2 is 2×2 max pooling with stride 2 over an (H, W, C) input.
type MaxPool2 struct {
	H, W, C  int
	argmax   []int
	out, dx  []float64      // owned scratch, reused across calls
	batchOut *tensor.Tensor // owned batch scratch
}

// NewMaxPool2 creates the pooling layer; H and W must be even.
func NewMaxPool2(h, w, c int) *MaxPool2 {
	if h%2 != 0 || w%2 != 0 {
		panic("nn: MaxPool2 needs even dimensions")
	}
	return &MaxPool2{H: h, W: w, C: c}
}

// OutLen reports the flattened output length.
func (p *MaxPool2) OutLen() int { return p.H / 2 * p.W / 2 * p.C }

// Forward pools one flattened (H, W, C) frame, returning layer-owned
// scratch overwritten by the next call, and records each window's
// argmax for Backward.
func (p *MaxPool2) Forward(x []float64) []float64 {
	oh, ow := p.H/2, p.W/2
	out := grow(p.out, oh*ow*p.C)
	p.out = out
	if cap(p.argmax) < len(out) {
		p.argmax = make([]int, len(out))
	}
	p.argmax = p.argmax[:len(out)]
	// The 2×2 window is unrolled with direct index arithmetic; the
	// first-strictly-greater tie-breaking matches the original loop
	// (scan order (0,0), (0,1), (1,0), (1,1)), so outputs and argmax
	// indices are identical.
	for oy := 0; oy < oh; oy++ {
		rowTop := oy * 2 * p.W * p.C
		rowBot := rowTop + p.W*p.C
		for ox := 0; ox < ow; ox++ {
			i00 := rowTop + ox*2*p.C
			o := (oy*ow + ox) * p.C
			for ch := 0; ch < p.C; ch++ {
				a := i00 + ch
				b := a + p.C
				c := rowBot + ox*2*p.C + ch
				d := c + p.C
				best, bestIdx := x[a], a
				if x[b] > best {
					best, bestIdx = x[b], b
				}
				if x[c] > best {
					best, bestIdx = x[c], c
				}
				if x[d] > best {
					best, bestIdx = x[d], d
				}
				out[o+ch] = best
				p.argmax[o+ch] = bestIdx
			}
		}
	}
	return out
}

// ForwardBatch pools B frames packed contiguously in x (any tensor
// whose flat length is a multiple of H·W·C), returning the layer-owned
// (B, OutLen) output. Max selection is exact, so each row equals
// Forward on that frame bit-for-bit. Inference only: no argmax is
// recorded, and the result is overwritten by the next call.
func (p *MaxPool2) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	frameLen := p.H * p.W * p.C
	if x.Len()%frameLen != 0 {
		panic("nn: MaxPool2 batch input not a whole number of frames")
	}
	bn := x.Len() / frameLen
	outLen := p.OutLen()
	outT := tensor.Ensure(p.batchOut, bn, outLen)
	p.batchOut = outT
	oh, ow := p.H/2, p.W/2
	for b := 0; b < bn; b++ {
		in := x.Data[b*frameLen : (b+1)*frameLen]
		out := outT.Data[b*outLen : (b+1)*outLen]
		for oy := 0; oy < oh; oy++ {
			rowTop := oy * 2 * p.W * p.C
			rowBot := rowTop + p.W*p.C
			for ox := 0; ox < ow; ox++ {
				i00 := rowTop + ox*2*p.C
				o := (oy*ow + ox) * p.C
				for ch := 0; ch < p.C; ch++ {
					a := i00 + ch
					best := in[a]
					if v := in[a+p.C]; v > best {
						best = v
					}
					c := rowBot + ox*2*p.C + ch
					if v := in[c]; v > best {
						best = v
					}
					if v := in[c+p.C]; v > best {
						best = v
					}
					out[o+ch] = best
				}
			}
		}
	}
	return outT
}

// Backward routes each output gradient to its window's argmax,
// returning dLoss/dInput (layer-owned scratch).
func (p *MaxPool2) Backward(grad []float64) []float64 {
	dx := growZero(p.dx, p.H*p.W*p.C)
	p.dx = dx
	for o, g := range grad {
		dx[p.argmax[o]] += g
	}
	return dx
}

// SoftmaxCrossEntropy computes the loss of one example and writes
// dLoss/dLogits into grad (len(logits) long, not aliasing logits).
func SoftmaxCrossEntropy(grad, logits []float64, label int) (loss float64) {
	tensor.SoftmaxInto(grad, logits)
	p := grad[label]
	grad[label] -= 1
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}
