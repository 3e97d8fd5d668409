package agent

// Clone returns an independent copy of the trained networks: same
// weights, fresh scratch. The experiment runner executes many trials
// concurrently against one per-benchmark trained model, and every
// forward pass writes its layers' scratch, so each BatchModels and each
// training detection worker runs on its own copy; runs stay race-free
// and byte-identical at any parallelism level.
func (m *Models) Clone() *Models {
	return &Models{
		conv:  m.conv.Clone(),
		pool:  m.pool.Clone(),
		dense: m.dense.Clone(),
		lstm:  m.lstm.Clone(),
		head:  m.head.Clone(),
	}
}
