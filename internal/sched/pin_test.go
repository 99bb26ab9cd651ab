package sched

import (
	"reflect"
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/sim"
)

// TestDefaultJobConfigPinned pins the requeue budget and resilience values
// a run that sets none of them binds its JobChecker to. Placement and the
// self-healing paths read the same values, so this pins them too.
func TestDefaultJobConfigPinned(t *testing.T) {
	c := Config{}
	c.applyDefaults()
	want := check.JobConfig{
		MaxRequeues: 3, Servers: 3,
		MaxPlacementRetries: 3, PlacementBackoff: 5 * sim.Millisecond,
		QuarantineDur: 250 * sim.Millisecond, QuarantineMax: 2 * sim.Second,
		ProbationDur: 500 * sim.Millisecond, DegradeEnter: 8, DegradeExit: 2,
	}
	if got := c.jobConfig(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("jobConfig(3):\n got %+v\nwant %+v", got, want)
	}
}
