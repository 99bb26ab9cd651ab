package memharvest

import (
	"testing"

	"smartharvest/internal/core"
)

// TestDefaultConfigPinned pins every Result field of the five policies the
// memharvest experiment compares, at 120 s after a 10 s warm-up, seed 1.
// The experiment golden runs at a scale where the learner has not
// harvested yet, so this is what pins the learned policy's behaviour.
func TestDefaultConfigPinned(t *testing.T) {
	for _, tc := range []struct {
		ctrl    core.Controller
		want    string
		gb      float64
		faults  float64
		short   int
		reclaim int
	}{
		{learned(), "smartharvest-mem", 32.659375, 1239.4689831517983, 1, 120},
		{fixed(2), "fixed-2GB", 35.660625, 1596.907249318356, 1, 126},
		{fixed(8), "fixed-8GB", 28.960625, 857.8407813387425, 2, 124},
		{fixed(16), "fixed-16GB", 21.654791666666668, 354.74193022367797, 10, 125},
		{fixed(24), "fixed-24GB", 13.651458333333334, 64.24733910648654, 10, 125},
	} {
		res := Run(config(1), tc.ctrl)
		want := Result{AvgHarvestedGB: tc.gb, FaultSeconds: tc.faults,
			ShortEpisodes: tc.short, Reclaims: tc.reclaim}
		if *res != want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.want, *res, want)
		}
	}
}
