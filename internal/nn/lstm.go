package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single-layer Long Short-Term Memory network (Hochreiter &
// Schmidhuber 1997 — the paper's action-generation model), trained with
// backpropagation through time.
type LSTM struct {
	InSize, Hidden int
	// Gate weights, stacked [input; forget; cell; output] × (in+hidden+1).
	w *Param

	// Inference state.
	h, c []float64

	// BPTT caches (one entry per timestep of the current sequence).
	xs, hs, cs      [][]float64
	gi, gf, gg, go_ [][]float64
	training        bool

	// Inference scratch (reused across Steps outside training; BPTT
	// needs per-step copies, so training allocates as before).
	sPrevH, sPrevC, sZi, sZf, sZg, sZo []float64

	// freeSteps recycles the per-step BPTT cache slices between
	// sequences: Reset moves the previous sequence's caches here and
	// Step pops from it before allocating. Every recycled slice is
	// fully overwritten before use, so training is unaffected.
	freeSteps [][]float64
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

// Reset clears the recurrent state and BPTT caches. The state buffers
// are zeroed in place when already allocated (a new session must not
// cost a new allocation in a long-running client).
func (l *LSTM) Reset() {
	if len(l.h) != l.Hidden {
		l.h = make([]float64, l.Hidden)
		l.c = make([]float64, l.Hidden)
	} else {
		for i := range l.h {
			l.h[i] = 0
			l.c[i] = 0
		}
	}
	for _, seq := range [][][]float64{l.xs, l.hs, l.cs, l.gi, l.gf, l.gg, l.go_} {
		l.freeSteps = append(l.freeSteps, seq...)
	}
	l.xs, l.hs, l.cs = l.xs[:0], l.hs[:0], l.cs[:0]
	l.gi, l.gf, l.gg, l.go_ = l.gi[:0], l.gf[:0], l.gg[:0], l.go_[:0]
}

// takeStep pops a recycled BPTT cache slice of length n (or allocates
// one). The caller fully overwrites it.
func (l *LSTM) takeStep(n int) []float64 {
	for i := len(l.freeSteps) - 1; i >= 0; i-- {
		s := l.freeSteps[i]
		if cap(s) >= n {
			last := len(l.freeSteps) - 1
			l.freeSteps[i] = l.freeSteps[last]
			l.freeSteps[last] = nil
			l.freeSteps = l.freeSteps[:last]
			return s[:n]
		}
	}
	return make([]float64, n)
}

// SetTraining switches BPTT caching on or off.
func (l *LSTM) SetTraining(t bool) { l.training = t }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Step consumes one input vector and returns the new hidden state. The
// returned slice aliases the LSTM's own state buffer and is overwritten
// by the next Step; copy it to retain it across steps.
func (l *LSTM) Step(x []float64) []float64 {
	if len(x) != l.InSize {
		panic("nn: LSTM input size mismatch")
	}
	if l.training {
		// BPTT retains these per step; each is private to the step
		// (freshly allocated or recycled from a finished sequence).
		prevH := l.takeStep(l.Hidden)
		copy(prevH, l.h)
		prevC := l.takeStep(l.Hidden)
		copy(prevC, l.c)
		zi := l.takeStep(l.Hidden)
		zf := l.takeStep(l.Hidden)
		zg := l.takeStep(l.Hidden)
		zo := l.takeStep(l.Hidden)
		l.stepCore(l.h, l.c, x, prevH, prevC, zi, zf, zg, zo)
		xc := l.takeStep(l.InSize)
		copy(xc, x)
		l.xs = append(l.xs, xc)
		l.hs = append(l.hs, prevH)
		l.cs = append(l.cs, prevC)
		l.gi = append(l.gi, zi)
		l.gf = append(l.gf, zf)
		l.gg = append(l.gg, zg)
		l.go_ = append(l.go_, zo)
	} else {
		l.StepState(l.h, l.c, x)
	}
	return l.h
}

// StepState advances one inference step over caller-provided state rows
// h and c (each Hidden long), updating them in place. This is the
// batched entry point: many sessions can share one weight-holding LSTM,
// each owning only its two state rows, and the gate math is the exact
// code Step runs — batched and per-session results are bit-identical by
// construction. Uses the layer's owned scratch; not valid while
// training (no BPTT caches are recorded).
func (l *LSTM) StepState(h, c, x []float64) {
	if len(x) != l.InSize {
		panic("nn: LSTM input size mismatch")
	}
	if len(h) != l.Hidden || len(c) != l.Hidden {
		panic("nn: LSTM state size mismatch")
	}
	l.sPrevH = append(l.sPrevH[:0], h...)
	l.sPrevC = append(l.sPrevC[:0], c...)
	l.sZi = grow(l.sZi, l.Hidden)
	l.sZf = grow(l.sZf, l.Hidden)
	l.sZg = grow(l.sZg, l.Hidden)
	l.sZo = grow(l.sZo, l.Hidden)
	l.stepCore(h, c, x, l.sPrevH, l.sPrevC, l.sZi, l.sZf, l.sZg, l.sZo)
}

// stepCore is the shared gate math: reads prevH/prevC (copies of the
// pre-step state), writes the new state into h and c, and records gate
// activations into zi/zf/zg/zo.
func (l *LSTM) stepCore(h, c, x, prevH, prevC, zi, zf, zg, zo []float64) {
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
			xv := x[k]
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
	T := len(l.xs)
	if len(dHs) != T {
		panic("nn: BPTT gradient count mismatch")
	}
	cols := l.InSize + l.Hidden + 1
	// Two pairs of state-gradient buffers, swapped each step (the values
	// written as dhPrev/dcPrev at step t are read as dhNext/dcNext at
	// t−1; no other step touches them, so reuse is safe).
	dhNext := make([]float64, l.Hidden)
	dcNext := make([]float64, l.Hidden)
	dhPrev := make([]float64, l.Hidden)
	dcPrev := make([]float64, l.Hidden)
	dh := make([]float64, l.Hidden)
	ct := make([]float64, l.Hidden)
	for t := T - 1; t >= 0; t-- {
		xs, hs, cs := l.xs[t], l.hs[t], l.cs[t]
		gi, gf, gg, go_ := l.gi[t], l.gf[t], l.gg[t], l.go_[t]
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
