package metrics

import (
	"testing"
)

// FuzzHistogramQuantile records a fuzz-derived sample set — spanning the
// full non-negative int64 dynamic range — into a Histogram at a
// fuzz-chosen precision and cross-checks every quantile estimate against
// ExactQuantile on the raw samples. The documented contract: relative
// error bounded by the bucket precision 2^-subBits (plus one count of
// integer-rounding slop in the linear region). It then holds the
// histogram, and both merges of its two halves, to the dense reference.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), []byte{0xff, 0xff, 0x00, 0x00, 0x80, 0x40})
	f.Add(uint8(16), []byte("latency latency latency spike \xff\xfe\xfd"))
	f.Add(uint8(3), []byte{})

	f.Fuzz(func(t *testing.T, subBitsRaw uint8, data []byte) {
		subBits := uint(1 + subBitsRaw%16) // [1, 16]
		h, d := NewHistogramPrecision(subBits), newDense(subBits)
		defer release(d)

		// Two bytes per sample: the first picks between a small linear
		// value and a shifted wide-range value, the second the magnitude.
		// This covers both the exact (linear) buckets and the logarithmic
		// region up to ~2^62.
		var samples, raw []int64
		for i := 0; i+1 < len(data) && len(samples) < 4096; i += 2 {
			b0, b1 := data[i], data[i+1]
			var v int64
			if b0&0x80 != 0 {
				v = int64(b1) // linear region
			} else {
				v = int64((uint64(b1) + 1) << (b0 % 55))
			}
			h.Record(v)
			d.Record(v)
			samples = append(samples, v)
			raw = append(raw, v)
		}
		// A trailing odd byte exercises the negative-clamp path.
		if len(data)%2 == 1 {
			h.Record(-int64(data[len(data)-1]))
			d.Record(-int64(data[len(data)-1]))
			samples = append(samples, 0) // Record clamps negatives to zero
			raw = append(raw, -int64(data[len(data)-1]))
		}
		sameAsDense(t, "fuzz", h, d)
		mergeBothWays(t, "fuzz halves", subBits, raw[:len(raw)/2], raw[len(raw)/2:])
		if len(samples) == 0 {
			if h.Quantile(0.5) != 0 {
				t.Fatalf("empty histogram Quantile = %d, want 0", h.Quantile(0.5))
			}
			return
		}
		if h.total != uint64(len(samples)) {
			t.Fatalf("Count = %d, want %d", h.total, len(samples))
		}

		for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			exact := ExactQuantile(samples, q)
			diff := got - exact
			if diff < 0 {
				diff = -diff
			}
			// Bucket width is at most exact*2^-subBits, and the estimate
			// is the bucket midpoint clamped to observed extremes, so it
			// can be off by at most a bucket width; +1 absorbs the
			// midpoint's integer floor.
			bound := int64(float64(exact)*quantileRelBound(subBits)) + 1
			if diff > bound {
				t.Fatalf("q=%v subBits=%d: Quantile %d vs exact %d (diff %d > bound %d, n=%d)",
					q, subBits, got, exact, diff, bound, len(samples))
			}
		}
	})
}

// quantileRelBound is the documented relative-error bound for a given
// precision: one part in 2^subBits.
func quantileRelBound(subBits uint) float64 {
	return 1 / float64(uint64(1)<<subBits)
}
