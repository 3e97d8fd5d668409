package nn

// Layer cloning: deep-copies of the learnable weights with fresh
// forward/backward caches. Clones exist so one trained network can
// drive many concurrent simulations — Forward and Step write scratch
// state (cached inputs and outputs, LSTM recurrent state), so a shared
// network is neither goroutine-safe nor deterministic across runs.

func cloneParam(p *Param) *Param {
	if p == nil {
		return nil
	}
	c := newParam(len(p.W))
	copy(c.W, p.W)
	return c
}

// Clone returns an independent layer with the same weights.
func (d *Dense) Clone() *Dense {
	return &Dense{In: d.In, Out: d.Out, w: cloneParam(d.w), b: cloneParam(d.b)}
}

// Clone returns an independent layer with the same weights.
func (c *Conv2D) Clone() *Conv2D {
	return &Conv2D{H: c.H, W: c.W, InC: c.InC, OutC: c.OutC, K: c.K,
		w: cloneParam(c.w), b: cloneParam(c.b)}
}

// Clone returns an independent pooling layer.
func (p *MaxPool2) Clone() *MaxPool2 { return &MaxPool2{H: p.H, W: p.W, C: p.C} }

// Clone returns an independent LSTM with the same weights and cleared
// recurrent state.
func (l *LSTM) Clone() *LSTM {
	c := &LSTM{InSize: l.InSize, Hidden: l.Hidden, w: cloneParam(l.w)}
	c.Reset()
	return c
}
