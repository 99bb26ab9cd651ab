package learner

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCSOAAPredict drives a CSOAA reduction with fuzz-chosen variant,
// shape, learning rate, and training stream, and asserts the properties
// the agent relies on:
//
//   - Predict always lands in [0, classes-1] — the learner can never ask
//     for a core count outside [0, totalCores], no matter how adversarial
//     the training data (including streams that blow the weights up to
//     NaN/Inf).
//   - Checkpoint/Restore round-trips: a fresh model of the same variant
//     and shape restored from the checkpoint predicts identically on
//     probe vectors. When training diverged to non-finite weights,
//     Checkpoint must refuse (JSON cannot carry NaN/Inf) rather than
//     silently persist a poisoned model.
//   - Restore never panics on arbitrary bytes into the shape the agent
//     runs (11 classes, NumFeatures features), and a model it accepts
//     still trains and predicts in range on a NumFeatures-long vector.
func FuzzCSOAAPredict(f *testing.F) {
	f.Add(uint8(9), uint8(3), uint16(100), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(uint8(14), uint8(7), uint16(999), []byte("\xff\x80\x7f\x00spike\xfe"))
	f.Add(uint8(2), uint8(1), uint16(500), bytes.Repeat([]byte{0x81, 0x7f}, 64))
	f.Add(uint8(9), uint8(0x84), uint16(100), []byte{1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, classesRaw, nfeatRaw uint8, lrRaw uint16, data []byte) {
		classes := 2 + int(classesRaw)%15      // [2, 16] — cores 0..totalCores
		nfeat := 1 + int(nfeatRaw)%8           // [1, 8]
		lr := (float64(lrRaw%1000) + 1) / 1000 // (0, 1]
		// The top bit of nfeatRaw, unused by nfeat, picks the variant.
		build := NewCSOAAPredictor
		if nfeatRaw&0x80 != 0 {
			build = NewAdaGradPredictor
		}
		c := build(classes, nfeat, lr).CSOAA

		// Deterministic byte stream, cycling so short inputs still train.
		off := 0
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[off%len(data)]
			off++
			return float64(int8(b)) / 8 // [-16, 15.875]
		}

		x := make([]float64, nfeat)
		costs := make([]float64, classes)
		steps := len(data)
		if steps > 256 {
			steps = 256
		}
		for s := 0; s < steps; s++ {
			for i := range x {
				x[i] = next()
			}
			for i := range costs {
				costs[i] = next()
			}
			c.Update(x, costs)
			if p := c.Predict(x); p < 0 || p >= classes {
				t.Fatalf("step %d: Predict = %d outside [0, %d]", s, p, classes-1)
			}
		}

		// Probe vectors for the round-trip comparison.
		probes := make([][]float64, 4)
		for j := range probes {
			probes[j] = make([]float64, nfeat)
			for i := range probes[j] {
				probes[j][i] = next()
			}
		}
		for _, p := range probes {
			if got := c.Predict(p); got < 0 || got >= classes {
				t.Fatalf("probe Predict = %d outside [0, %d]", got, classes-1)
			}
		}

		snap, err := c.Checkpoint()
		if err != nil {
			// Checkpoint may only refuse a model whose weights diverged
			// to NaN/Inf — anything finite must serialize.
			for _, rows := range [][][]float64{c.weights, c.gradSq} {
				for _, w := range rows {
					for _, v := range w {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							return
						}
					}
				}
			}
			t.Fatalf("Checkpoint failed on a finite model: %v", err)
		}
		re := build(classes, nfeat, lr).CSOAA
		if err := re.Restore(snap); err != nil {
			t.Fatalf("Restore rejected Checkpoint output: %v", err)
		}
		for j, p := range probes {
			if a, b := c.Predict(p), re.Predict(p); a != b {
				t.Fatalf("probe %d: original predicts %d, restored predicts %d", j, a, b)
			}
		}

		// Arbitrary bytes must never panic Restore; a model it does
		// accept must still train and predict in range.
		m := build(testClasses, NumFeatures, DefaultLR).CSOAA
		if err := m.Restore(data); err == nil {
			v := make([]float64, NumFeatures)
			m.Update(v, make([]float64, testClasses))
			if p := m.Predict(v); p < 0 || p >= testClasses {
				t.Fatalf("restored model Predict = %d outside [0, %d]", p, testClasses-1)
			}
		}
	})
}
