// Command pictor-train exercises the intelligent-client training
// pipeline end to end for one benchmark: record a human session, label
// frames from the scene ground truth, train the CNN object recognizer
// and the LSTM action generator, and report model quality (§3.1).
//
// Usage:
//
//	pictor-train [-bench STK] [-record-seconds 45] [-out models.gob]
package main

import (
	"flag"
	"fmt"
	"os"

	"pictor/internal/agent"
	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/tensor"
)

func main() {
	bench := flag.String("bench", "STK", "benchmark to train a client for")
	recordSeconds := flag.Float64("record-seconds", 45, "length of the recorded human session")
	epochsCNN := flag.Int("cnn-epochs", 3, "CNN training epochs")
	epochsLSTM := flag.Int("lstm-epochs", 14, "LSTM training epochs")
	seed := flag.Int64("seed", 0xC0FFEE, "recording seed")
	flag.Parse()

	prof, ok := app.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(2)
	}

	fmt.Printf("recording %.0fs human session of %s...\n", *recordSeconds, prof)
	rec, gap := core.RecordSession(prof, *recordSeconds, *seed)
	acted := 0
	for _, s := range rec.Samples {
		if s.Action != scene.ActNone {
			acted++
		}
	}
	fmt.Printf("  %d frames captured (mean gap %.1f ms), %d with actions (%.1f%%)\n",
		len(rec.Samples), float64(gap)/float64(sim.Millisecond),
		acted, float64(acted)/float64(len(rec.Samples))*100)

	cfg := agent.DefaultTrainConfig()
	cfg.CNNEpochs = *epochsCNN
	cfg.LSTMEpochs = *epochsLSTM
	fmt.Printf("training CNN (%d epochs) and LSTM (%d epochs)...\n", cfg.CNNEpochs, cfg.LSTMEpochs)
	models := agent.Train(rec, cfg, 77)

	fmt.Printf("  CNN per-cell recognition accuracy: %.1f%%\n", models.CNNAccuracy(rec)*100)

	// Replay the recording through one client session and compare
	// action rates — the mimicry check behind Table 3.
	sess := agent.NewBatchModels(models).NewSession()
	rng := sim.NewRNG(5)
	icActs := 0
	for _, s := range rec.Samples {
		sess.SubmitFrame(s.Pixels)
		if a := agent.SampleAction(sess.NextActionLogits(sess.Detected()), rng); a != scene.ActNone {
			icActs++
		}
	}
	fmt.Printf("  action-rate mimicry: human %d vs IC %d actions over the session\n", acted, icActs)

	// Show a sample decision.
	if len(rec.Samples) > 0 {
		sess.SubmitFrame(rec.Samples[0].Pixels)
		det := sess.Detected()
		logits := sess.NextActionLogits(det)
		fmt.Printf("  sample frame: detected %d objects, argmax action %v\n",
			countNonEmpty(det), scene.Action(tensor.ArgMax(logits)))
	}
}

func countNonEmpty(det []scene.Type) int {
	n := 0
	for _, t := range det {
		if t != scene.Empty {
			n++
		}
	}
	return n
}
