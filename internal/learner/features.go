// Package learner implements SmartHarvest's online-learning machinery: the
// five-feature summary of a learning window's busy-core samples, the
// cost-sensitive one-against-all (CSOAA) multi-class classifier the paper
// builds with Vowpal Wabbit, the three cost functions of Figures 3 and 12,
// and the EWMA baseline predictor discussed in the motivation.
//
// Everything is allocation-free on the hot path: the agent runs a
// prediction and an update every learning window (default 25 ms), and the
// paper's Table 3 reports microsecond-scale learning operations.
package learner

import (
	"fmt"
	"math"
)

// NumFeatures is the size of the feature vector (excluding bias): min,
// max, average, standard deviation, and median of the window's busy-core
// samples. The paper selected exactly these five via offline feature
// ranking.
const NumFeatures = 5

// Features summarizes one learning window's busy-core samples.
type Features struct {
	Min, Max, Avg, Std, Median float64
}

// scratch is a reusable counting-sort buffer; busy-core samples are small
// non-negative integers bounded by the core count.
type scratch struct {
	counts []int
}

// FeatureExtractor computes Features from busy-core samples without
// allocating. maxValue is the largest possible sample (the primary VMs'
// total core allocation).
type FeatureExtractor struct {
	s scratch
}

// NewFeatureExtractor returns an extractor for samples in [0, maxValue].
func NewFeatureExtractor(maxValue int) *FeatureExtractor {
	if maxValue < 1 {
		panic("learner: maxValue must be >= 1")
	}
	return &FeatureExtractor{s: scratch{counts: make([]int, maxValue+1)}}
}

// Compute summarizes samples. It panics on an empty window (the agent
// always polls at least once per window) and on out-of-range samples.
func (fe *FeatureExtractor) Compute(samples []int) Features {
	if len(samples) == 0 {
		panic("learner: empty sample window")
	}
	for i := range fe.s.counts {
		fe.s.counts[i] = 0
	}
	min, max := samples[0], samples[0]
	var sum, sumSq float64
	for _, v := range samples {
		if v < 0 || v >= len(fe.s.counts) {
			panic(fmt.Sprintf("learner: sample %d out of range [0,%d]", v, len(fe.s.counts)-1))
		}
		fe.s.counts[v]++
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		f := float64(v)
		sum += f
		sumSq += f * f
	}
	n := float64(len(samples))
	avg := sum / n
	variance := sumSq/n - avg*avg
	if variance < 0 {
		variance = 0
	}
	// Median via the counting histogram (lower median for even n).
	rank := (len(samples) + 1) / 2
	median := 0
	seen := 0
	for v, c := range fe.s.counts {
		seen += c
		if seen >= rank {
			median = v
			break
		}
	}
	return Features{
		Min: float64(min), Max: float64(max), Avg: avg,
		Std: math.Sqrt(variance), Median: float64(median),
	}
}

// Vector writes the normalized feature vector into dst (which must have
// length NumFeatures) and returns it. scale is the normalization constant
// (the primary core allocation), keeping inputs in [0, 1] so a single
// learning rate behaves uniformly across machine sizes.
func (f Features) Vector(dst []float64, scale float64) []float64 {
	if len(dst) != NumFeatures {
		panic("learner: bad feature vector length")
	}
	if scale <= 0 {
		scale = 1
	}
	dst[0] = f.Min / scale
	dst[1] = f.Max / scale
	dst[2] = f.Avg / scale
	dst[3] = f.Std / scale
	dst[4] = f.Median / scale
	return dst
}

// FeatureName labels each feature index.
var FeatureName = [NumFeatures]string{"min", "max", "avg", "std", "median"}

// FeatureMask marks the features a learner is denied; the zero value
// denies none. It backs the feature-set ablation: the paper selected its
// five features offline; the ablation measures what each contributes.
type FeatureMask [NumFeatures]bool

// NewFeatureMask keeps only the named features ("min", "max", "avg",
// "std", "median"); an empty list and unknown names panic.
func NewFeatureMask(keep ...string) FeatureMask {
	if len(keep) == 0 {
		panic("learner: empty feature mask")
	}
	var m FeatureMask
	for i := range m {
		m[i] = true
	}
	for _, name := range keep {
		found := false
		for i, n := range FeatureName {
			if n == name {
				m[i] = false
				found = true
				break
			}
		}
		if !found {
			panic("learner: unknown feature " + name)
		}
	}
	return m
}

// Apply zeroes the denied entries of a feature vector (length
// NumFeatures).
func (m *FeatureMask) Apply(x []float64) {
	for i, off := range m {
		if off {
			x[i] = 0
		}
	}
}
