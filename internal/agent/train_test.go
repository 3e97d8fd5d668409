package agent

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pictor/internal/app"
	"pictor/internal/scene"
)

// weightsDigest hashes the exact bits of every trained weight: the
// CNN's, then the LSTM's, then the action head's.
func weightsDigest(m *Models) string {
	h := sha256.New()
	var b [8]byte
	params := append(m.cnnParams(), m.lstm.Params()...)
	params = append(params, m.head.Params()...)
	for _, p := range params {
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedWeightsPinned pins every bit of the trained weights. Any
// reordering of a float operation in training — the CNN's forward and
// backward passes, the detection pass that feeds the LSTM, the
// optimizer — moves a digest.
func TestTrainedWeightsPinned(t *testing.T) {
	vv := makeRecording(app.VV(), 203, 31)
	extended := 0
	for _, s := range vv.Samples {
		for _, c := range s.Cells {
			if c.T >= scene.NumCoreTypes {
				extended++
			}
		}
	}
	if extended == 0 {
		t.Fatal("the VV recording holds no extended cells; the case would not cover the CNN's skip path")
	}
	cases := []struct {
		name string
		rec  *Recording
		cfg  TrainConfig
		want string
	}{
		{
			name: "RE/default",
			rec:  makeRecording(app.RE(), 300, 21),
			cfg:  DefaultTrainConfig(),
			want: "2632298d97caaffe81377b59d96077c8ae333cf04ee692d9eecffff8e3ffa42d",
		},
		{
			// 2501 patches per epoch is not a multiple of the four
			// examples per Adam step, and 203 frames is a multiple of
			// neither SeqLen nor the detection chunk.
			name: "VV/ragged",
			rec:  vv,
			cfg:  TrainConfig{CNNEpochs: 2, CNNMaxPatch: 2501, LSTMEpochs: 3, SeqLen: 24, LearningRate: 0.012},
			want: "e301109eac8f618b77c88f407abddb537263ddc82cbf0a2597ec5164eebc343a",
		},
	}
	for _, c := range cases {
		if got := weightsDigest(Train(c.rec, c.cfg, 77)); got != c.want {
			t.Errorf("%s: trained weights digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestDetectAllSplitDeterministic checks that the detection pass gives
// the same recognitions whether one worker or three split the frames,
// and that they equal Detect's frame by frame. 203 frames is a multiple
// of neither the chunk size (8) nor the worker count.
func TestDetectAllSplitDeterministic(t *testing.T) {
	rec := makeRecording(app.STK(), 203, 5)
	m := Train(rec, TrainConfig{CNNEpochs: 1, CNNMaxPatch: 500, LSTMEpochs: 1, SeqLen: 24, LearningRate: 0.01}, 3)
	one := m.detectAll(rec.Samples, 1)
	three := m.detectAll(rec.Samples, 3)
	for i := range one {
		if one[i] != three[i] {
			t.Fatalf("frame %d cell %d: one worker detected %v, three workers %v", i/cells, i%cells, one[i], three[i])
		}
	}
	for f, s := range rec.Samples {
		det := m.Detect(s.Pixels)
		for c, d := range det {
			if got := one[f*cells+c]; got != d {
				t.Fatalf("frame %d cell %d: detection pass %v, Detect %v", f, c, got, d)
			}
		}
	}
}
