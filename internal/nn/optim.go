package nn

import (
	"bytes"
	"encoding/gob"
	"math"
)

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
				norm += g * g
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
	for _, p := range a.params {
		if p.m == nil {
			p.m = make([]float64, len(p.W))
			p.v = make([]float64, len(p.W))
		}
		for i, g := range p.G {
			p.m[i] = a.Beta1*p.m[i] + (1-a.Beta1)*g
			p.v[i] = a.Beta2*p.v[i] + (1-a.Beta2)*g*g
			mHat := p.m[i] / bc1
			vHat := p.v[i] / bc2
			p.W[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.zeroGrad()
	}
}

// SaveWeights serializes a parameter set (gob encoding).
func SaveWeights(params []*Param) ([]byte, error) {
	var ws [][]float64
	for _, p := range params {
		ws = append(ws, p.W)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ws); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadWeights restores a parameter set saved with SaveWeights. The
// parameter shapes must match.
func LoadWeights(params []*Param, data []byte) error {
	var ws [][]float64
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ws); err != nil {
		return err
	}
	if len(ws) != len(params) {
		return errShape
	}
	for i, p := range params {
		if len(ws[i]) != len(p.W) {
			return errShape
		}
		copy(p.W, ws[i])
	}
	return nil
}

type shapeError struct{}

func (shapeError) Error() string { return "nn: weight shape mismatch" }

var errShape = shapeError{}
