package nn

import (
	"math"
	"math/rand"
	"slices"
)

// LSTM is a single-layer Long Short-Term Memory network (Hochreiter &
// Schmidhuber 1997 — the paper's action-generation model), trained with
// backpropagation through time.
//
// Step and Backward are the training path: Step advances the layer's
// own state and records the step for Backward. Inference goes through
// StepState, over state rows the caller owns.
type LSTM struct {
	InSize, Hidden int
	// Gate weights, stacked [input; forget; cell; output] × (in+hidden+1).
	w *Param

	// Training state: the recurrent rows Step advances, and the BPTT
	// cache of the sequence since Reset, one record per Step (see
	// record).
	h, c  []float64
	cache []float64

	// Backward's six state-gradient buffers, and StepState's one-record
	// scratch.
	dstate, scratch []float64
}

// NewLSTM creates an LSTM with forget-gate bias initialized positive
// (standard trick for gradient flow early in training).
func NewLSTM(inSize, hidden int, rng *rand.Rand) *LSTM {
	cols := inSize + hidden + 1 // +1: bias column
	l := &LSTM{InSize: inSize, Hidden: hidden, w: newParam(4 * hidden * cols)}
	l.w.initUniform(rng, inSize+hidden)
	for j := 0; j < hidden; j++ {
		l.w.W[l.widx(1, j, cols-1)] = 1.0 // forget bias
	}
	l.Reset()
	return l
}

// widx indexes weight (gate g ∈ 0..3, unit j, column k).
func (l *LSTM) widx(g, j, k int) int {
	cols := l.InSize + l.Hidden + 1
	return (g*l.Hidden+j)*cols + k
}

// Reset clears the training state and the BPTT cache, keeping their
// storage for the next sequence.
func (l *LSTM) Reset() {
	l.h = growZero(l.h, l.Hidden)
	l.c = growZero(l.c, l.Hidden)
	l.cache = l.cache[:0]
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// recordLen is the length of one step's record: the input x, the state
// h₋₁ and c₋₁ the step started from, and the activations of the input,
// forget, cell and output gates.
func (l *LSTM) recordLen() int { return l.InSize + 6*l.Hidden }

// record splits one step's record into its seven parts.
func (l *LSTM) record(r []float64) (x, prevH, prevC, zi, zf, zg, zo []float64) {
	n, H := l.InSize, l.Hidden
	return r[:n], r[n : n+H], r[n+H : n+2*H], r[n+2*H : n+3*H],
		r[n+3*H : n+4*H], r[n+4*H : n+5*H], r[n+5*H : n+6*H]
}

// Step is one training step: it advances the layer's state by input x,
// records the step for Backward and returns the new hidden state. The
// returned slice aliases the layer's state and is overwritten by the
// next Step; copy it to retain it across steps.
func (l *LSTM) Step(x []float64) []float64 {
	t, n := len(l.cache), l.recordLen()
	l.cache = slices.Grow(l.cache, n)[:t+n]
	l.step(l.cache[t:], l.h, l.c, x)
	return l.h
}

// StepState advances one inference step over caller-owned state rows
// h and c (each Hidden long), updating them in place. Many sessions can
// share one weight-holding LSTM, each owning only its two state rows;
// the gate math is the exact code Step runs. It uses the layer's
// scratch and leaves the training state alone.
func (l *LSTM) StepState(h, c, x []float64) {
	if len(h) != l.Hidden || len(c) != l.Hidden {
		panic("nn: LSTM state size mismatch")
	}
	l.scratch = grow(l.scratch, l.recordLen())
	l.step(l.scratch, h, c, x)
}

// step is the shared gate math: it records x and the pre-step state in
// r, writes the new state into h and c, and the gate activations into
// r.
func (l *LSTM) step(r, h, c, x []float64) {
	if len(x) != l.InSize {
		panic("nn: LSTM input size mismatch")
	}
	xs, prevH, prevC, zi, zf, zg, zo := l.record(r)
	copy(xs, x)
	copy(prevH, h)
	copy(prevC, c)
	cols := l.InSize + l.Hidden + 1
	for j := 0; j < l.Hidden; j++ {
		// Row slices per gate (the widx arithmetic hoisted out of the
		// inner loops; accumulation order is unchanged).
		rowI := l.w.W[(0*l.Hidden+j)*cols : (0*l.Hidden+j+1)*cols]
		rowF := l.w.W[(1*l.Hidden+j)*cols : (1*l.Hidden+j+1)*cols]
		rowG := l.w.W[(2*l.Hidden+j)*cols : (2*l.Hidden+j+1)*cols]
		rowO := l.w.W[(3*l.Hidden+j)*cols : (3*l.Hidden+j+1)*cols]
		var si, sf, sg, so float64
		for k := 0; k < l.InSize; k++ {
			xv := xs[k]
			if xv == 0 {
				continue
			}
			si += float64(rowI[k] * xv)
			sf += float64(rowF[k] * xv)
			sg += float64(rowG[k] * xv)
			so += float64(rowO[k] * xv)
		}
		for k := 0; k < l.Hidden; k++ {
			hv := prevH[k]
			if hv == 0 {
				continue
			}
			si += float64(rowI[l.InSize+k] * hv)
			sf += float64(rowF[l.InSize+k] * hv)
			sg += float64(rowG[l.InSize+k] * hv)
			so += float64(rowO[l.InSize+k] * hv)
		}
		si += rowI[cols-1]
		sf += rowF[cols-1]
		sg += rowG[cols-1]
		so += rowO[cols-1]
		zi[j] = sigmoid(si)
		zf[j] = sigmoid(sf)
		zg[j] = math.Tanh(sg)
		zo[j] = sigmoid(so)
		c[j] = float64(zf[j]*prevC[j]) + float64(zi[j]*zg[j])
		h[j] = zo[j] * math.Tanh(c[j])
	}
}

// Backward runs BPTT over the cached sequence. dHs[t] is dLoss/dh at
// step t (same length as the number of Steps taken since Reset).
// Gradients accumulate into the weight parameter.
func (l *LSTM) Backward(dHs [][]float64) {
	n, H := l.recordLen(), l.Hidden
	T := len(l.cache) / n
	if len(dHs) != T {
		panic("nn: BPTT gradient count mismatch")
	}
	cols := l.InSize + l.Hidden + 1
	// Two pairs of state-gradient buffers, swapped each step (the values
	// written as dhPrev/dcPrev at step t are read as dhNext/dcNext at
	// t−1; no other step touches them, so reuse is safe).
	l.dstate = growZero(l.dstate, 6*H)
	d := l.dstate
	dhNext, dcNext, dhPrev, dcPrev := d[:H], d[H:2*H], d[2*H:3*H], d[3*H:4*H]
	dh, ct := d[4*H:5*H], d[5*H:]
	for t := T - 1; t >= 0; t-- {
		xs, hs, cs, gi, gf, gg, go_ := l.record(l.cache[t*n : (t+1)*n])
		copy(dh, dHs[t])
		for j := range dh {
			dh[j] += dhNext[j]
		}
		// Recompute c_t from the caches.
		for j := 0; j < l.Hidden; j++ {
			ct[j] = float64(gf[j]*cs[j]) + float64(gi[j]*gg[j])
			dhPrev[j] = 0
		}
		for j := 0; j < l.Hidden; j++ {
			tanhC := math.Tanh(ct[j])
			do := dh[j] * tanhC
			dc := float64(dh[j]*go_[j]*(1-float64(tanhC*tanhC))) + dcNext[j]
			di := dc * gg[j]
			dg := dc * gi[j]
			df := dc * cs[j]
			dcPrev[j] = dc * gf[j]
			// Pre-activation gradients.
			pi := float64(di * gi[j] * (1 - gi[j]))
			pf := float64(df * gf[j] * (1 - gf[j]))
			pg := float64(dg * (1 - float64(gg[j]*gg[j])))
			po := float64(do * go_[j] * (1 - go_[j]))
			// Per-gate weight/gradient rows (the widx arithmetic hoisted
			// out of the inner loops; every += lands on the same element
			// in the same order as before).
			gI := l.w.G[(0*l.Hidden+j)*cols : (0*l.Hidden+j+1)*cols]
			gF := l.w.G[(1*l.Hidden+j)*cols : (1*l.Hidden+j+1)*cols]
			gG := l.w.G[(2*l.Hidden+j)*cols : (2*l.Hidden+j+1)*cols]
			gO := l.w.G[(3*l.Hidden+j)*cols : (3*l.Hidden+j+1)*cols]
			wI := l.w.W[(0*l.Hidden+j)*cols : (0*l.Hidden+j+1)*cols]
			wF := l.w.W[(1*l.Hidden+j)*cols : (1*l.Hidden+j+1)*cols]
			wG := l.w.W[(2*l.Hidden+j)*cols : (2*l.Hidden+j+1)*cols]
			wO := l.w.W[(3*l.Hidden+j)*cols : (3*l.Hidden+j+1)*cols]
			for k := 0; k < l.InSize; k++ {
				xv := xs[k]
				gI[k] += float64(pi * xv)
				gF[k] += float64(pf * xv)
				gG[k] += float64(pg * xv)
				gO[k] += float64(po * xv)
			}
			for k := 0; k < l.Hidden; k++ {
				hv := hs[k]
				kk := l.InSize + k
				gI[kk] += float64(pi * hv)
				gF[kk] += float64(pf * hv)
				gG[kk] += float64(pg * hv)
				gO[kk] += float64(po * hv)
				dhPrev[k] += float64(pi*wI[kk]) + float64(pf*wF[kk]) + float64(pg*wG[kk]) + float64(po*wO[kk])
			}
			gI[cols-1] += pi
			gF[cols-1] += pf
			gG[cols-1] += pg
			gO[cols-1] += po
			// Gradient into x_t is not needed by Pictor (features are
			// not learned upstream of the LSTM), so it is not computed.
		}
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
	}
}

// Params implements the optimizer interface.
func (l *LSTM) Params() []*Param { return []*Param{l.w} }
