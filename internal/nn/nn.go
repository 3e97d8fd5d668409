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
		p.W[i] = (rng.Float64()*2 - 1) * scale
	}
}

// Layer is one differentiable stage of a feed-forward network.
//
// Ownership: Forward and Backward return layer-owned scratch buffers
// that are overwritten by the next call on the same layer. Callers that
// need a result to survive a subsequent call must copy it. This is what
// keeps steady-state inference allocation-free (the intelligent client
// runs the CNN 24 times per displayed frame).
type Layer interface {
	// Forward maps input to output, caching what Backward needs.
	Forward(x []float64) []float64
	// Backward receives dLoss/dOutput, accumulates parameter gradients,
	// and returns dLoss/dInput.
	Backward(grad []float64) []float64
	// Params lists the layer's learnable parameters (may be empty).
	Params() []*Param
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

// ensureTensor reshapes t to the given shape, reusing its storage when
// the capacity allows (batch sizes fluctuate tick to tick; the scratch
// must not reallocate every time the batch shrinks). Contents are
// unspecified — callers fully overwrite.
func ensureTensor(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if t == nil || cap(t.Data) < n {
		return tensor.New(shape...)
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
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

// Forward implements Layer.
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
	out := ensureTensor(d.batchOut, bn, d.Out)
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

// Backward implements Layer.
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
			grow[i] += g * d.lastX[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// ReLU is the rectified-linear activation.
type ReLU struct {
	lastX   []float64
	out, dx []float64 // owned scratch, reused across calls
}

// Forward implements Layer.
func (r *ReLU) Forward(x []float64) []float64 {
	r.lastX = append(r.lastX[:0], x...)
	out := grow(r.out, len(x))
	r.out = out
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad []float64) []float64 {
	dx := grow(r.dx, len(grad))
	r.dx = dx
	for i, g := range grad {
		if r.lastX[i] > 0 {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Conv2D is a valid-padding, stride-1 convolution over an (H, W, C)
// input producing (H-k+1, W-k+1, OutC). Implemented with im2col.
type Conv2D struct {
	H, W, InC, OutC, K int
	w, b               *Param
	lastCols           *tensor.Tensor
	out, dcols, dx     []float64      // owned scratch, reused across calls
	inT, kmat, outT    *tensor.Tensor // cached headers (no per-call FromSlice)
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

// kernelMat returns the cached (OutC, K·K·InC) tensor view of the
// kernel weights — the transposed-B operand of the im2col matmul.
func (c *Conv2D) kernelMat() *tensor.Tensor {
	if c.kmat == nil {
		c.kmat = tensor.FromSlice(c.w.W, c.OutC, c.K*c.K*c.InC)
	}
	return c.kmat
}

// addBias adds the per-channel bias to every row of a (rows, OutC)
// output block.
func (c *Conv2D) addBias(out []float64, rows int) {
	for r := 0; r < rows; r++ {
		row := out[r*c.OutC : (r+1)*c.OutC]
		for o, bv := range c.b.W {
			row[o] += bv
		}
	}
}

// Forward implements Layer. Input is flattened (H, W, C); output is
// flattened (OutH, OutW, OutC).
func (c *Conv2D) Forward(x []float64) []float64 {
	if len(x) != c.H*c.W*c.InC {
		panic("nn: Conv2D input size mismatch")
	}
	if c.lastCols == nil {
		c.lastCols = tensor.New(c.OutH()*c.OutW(), c.K*c.K*c.InC)
		c.inT = tensor.FromSlice(x, c.H, c.W, c.InC)
	}
	in := c.inT // cached header; rebind the data to this call's input
	in.Data = x
	cols := c.lastCols // (outH*outW, K*K*InC), reused across frames
	tensor.Im2ColInto(cols, in, c.K, c.K)
	rows := cols.Shape[0]
	out := grow(c.out, rows*c.OutC)
	c.out = out
	if c.outT == nil {
		c.outT = tensor.FromSlice(out, rows, c.OutC)
	}
	c.outT.Data = out // rebind in case grow reallocated
	tensor.MatMulTransBInto(c.outT, cols, c.kernelMat())
	c.addBias(out, rows)
	return out
}

// ForwardBatchReLU convolves a (B, H, W, C) batch directly (no column
// matrix is materialized) and applies the ReLU activation as it stores
// each output, returning the layer-owned (B·OutH·OutW, OutC) output:
// frame b's rows occupy the contiguous block starting at b·OutH·OutW,
// equal bit-for-bit to Forward and then ReLU's Forward on that frame
// alone. Inference only; the result is overwritten by the next call.
func (c *Conv2D) ForwardBatchReLU(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 4 || x.Shape[1] != c.H || x.Shape[2] != c.W || x.Shape[3] != c.InC {
		panic("nn: Conv2D batch input shape mismatch")
	}
	bn := x.Shape[0]
	rows := bn * c.OutH() * c.OutW()
	out := ensureTensor(c.batchOut, rows, c.OutC)
	c.batchOut = out
	c.convDirect(out.Data, x.Data, bn)
	return out
}

// convDirect convolves `frames` stacked (H, W, C) frames in src into
// dst ((frames·OutH·OutW, OutC) row-major). Per output element it
// accumulates the K·K·InC products in exactly im2col row order (ky-
// major, then kx·c), then adds the channel bias, then applies ReLU —
// bit-identical to the im2col → MatMulTransBInto → addBias → ReLU
// pipeline it replaces, without writing and re-reading the (rows,
// K·K·InC) column matrix.
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
		// nine-term dot is fully unrolled in im2col row order.
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
						// Nine sequential += terms, matching Dot's
						// accumulation (including its 0 start) exactly.
						var s float64
						s += p0 * k[0]
						s += p1 * k[1]
						s += p2 * k[2]
						s += p3 * k[3]
						s += p4 * k[4]
						s += p5 * k[5]
						s += p6 * k[6]
						s += p7 * k[7]
						s += p8 * k[8]
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
							s += v * kk[i]
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

// Backward implements Layer. For compactness it propagates gradients to
// parameters and to the input via the im2col mapping.
func (c *Conv2D) Backward(grad []float64) []float64 {
	depth := c.K * c.K * c.InC
	rows := c.OutH() * c.OutW()
	dcols := growZero(c.dcols, rows*depth)
	c.dcols = dcols
	for r := 0; r < rows; r++ {
		patch := c.lastCols.Data[r*depth : (r+1)*depth]
		for o := 0; o < c.OutC; o++ {
			g := grad[r*c.OutC+o]
			if g == 0 {
				continue
			}
			c.b.G[o] += g
			wrow := c.w.W[o*depth : (o+1)*depth]
			growW := c.w.G[o*depth : (o+1)*depth]
			drow := dcols[r*depth : (r+1)*depth]
			for i := 0; i < depth; i++ {
				growW[i] += g * patch[i]
				drow[i] += g * wrow[i]
			}
		}
	}
	// Scatter column gradients back to input positions.
	dx := growZero(c.dx, c.H*c.W*c.InC)
	c.dx = dx
	ow := c.OutW()
	r := 0
	for oy := 0; oy < c.OutH(); oy++ {
		for ox := 0; ox < ow; ox++ {
			col := 0
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					base := ((oy+ky)*c.W + ox + kx) * c.InC
					for ch := 0; ch < c.InC; ch++ {
						dx[base+ch] += dcols[r*depth+col]
						col++
					}
				}
			}
			r++
		}
	}
	return dx
}

// Params implements Layer.
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

// Forward implements Layer.
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
	outT := ensureTensor(p.batchOut, bn, outLen)
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

// Backward implements Layer.
func (p *MaxPool2) Backward(grad []float64) []float64 {
	dx := growZero(p.dx, p.H*p.W*p.C)
	p.dx = dx
	for o, g := range grad {
		dx[p.argmax[o]] += g
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// Sequential chains layers into one network.
type Sequential struct {
	Layers []Layer
}

// Forward runs the full stack.
func (s *Sequential) Forward(x []float64) []float64 {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the full reverse pass.
func (s *Sequential) Backward(grad []float64) []float64 {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params gathers every layer's parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SoftmaxCrossEntropy computes loss and dLoss/dLogits for one example.
func SoftmaxCrossEntropy(logits []float64, label int) (loss float64, grad []float64) {
	probs := tensor.Softmax(logits)
	grad = make([]float64, len(logits))
	copy(grad, probs)
	grad[label] -= 1
	p := probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p), grad
}
