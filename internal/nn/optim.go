package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a parameter set.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64 // max gradient L2 norm per step; 0 disables clipping
	t      int
	params []*Param
}

// NewAdam creates an optimizer with standard hyperparameters.
func NewAdam(params []*Param, lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, params: params}
}

// Step applies one update from the accumulated gradients, then zeroes
// them.
func (a *Adam) Step() {
	a.t++
	if a.Clip > 0 {
		var norm float64
		for _, p := range a.params {
			for _, g := range p.G {
				norm += float64(g * g)
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.Clip {
			scale := a.Clip / norm
			for _, p := range a.params {
				for i := range p.G {
					p.G[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	for _, p := range a.params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
		w, m, v := p.W, p.m[:len(p.W)], p.v[:len(p.W)]
		for i, g := range p.G[:len(p.W)] {
			m[i] = float64(b1*m[i]) + float64((1-b1)*g)
			v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
		p.zeroGrad()
	}
}
