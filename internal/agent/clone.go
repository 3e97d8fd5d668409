package agent

// Clone returns an independent copy of the trained networks: same
// weights, fresh inference state. The experiment runner executes many
// trials concurrently against one per-benchmark trained model, and
// inference mutates the networks (the LSTM carries recurrent state,
// feed-forward layers cache activations), so every simulated client
// must own its own copy for runs to be race-free and byte-identical at
// any parallelism level.
func (m *Models) Clone() *Models {
	return &Models{
		conv:  m.conv.Clone(),
		pool:  m.pool.Clone(),
		dense: m.dense.Clone(),
		lstm:  m.lstm.Clone(),
		head:  m.head.Clone(),
	}
}
