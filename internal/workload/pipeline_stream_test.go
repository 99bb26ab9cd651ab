package workload_test

import (
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/traces"
	"smartharvest/internal/workload"
)

// TestPipelinedTraceStreamMatchesInline: IndexServe's streamed trace, drawn
// through the input pipeline across block and trace-loop boundaries, with
// its service demands, equals the same seeded objects drawn inline.
func TestPipelinedTraceStreamMatchesInline(t *testing.T) {
	build := func() (workload.Arrival, workload.ServiceDist) {
		cfg := traces.DefaultConfig(20000, 50*sim.Millisecond)
		cfg.Seed = 42
		s, err := traces.NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, workload.NewLogNormalService(simrng.New(43), 870*sim.Microsecond, 3, 20*sim.Millisecond)
	}
	refA, refS := build()
	a, s := build()
	pa, ps, stop := workload.DrawAhead(a, s, 0)
	defer stop()
	now := sim.Time(0)
	for i := 0; i < 5*workload.BlockLen+11; i++ {
		wantGap, wantBatch := refA.Next(now)
		gap, batch := pa.Next(now)
		if gap != wantGap || batch != wantBatch {
			t.Fatalf("arrival %d at %v: pipelined (%v, %d), inline (%v, %d)", i, now, gap, batch, wantGap, wantBatch)
		}
		now += gap
		for j := 0; j < 3; j++ { // IndexServe's fan-out
			if got, want := ps.Sample(), refS.Sample(); got != want {
				t.Fatalf("service draw %d.%d: pipelined %v, inline %v", i, j, got, want)
			}
		}
	}
	if now < 100*sim.Millisecond {
		t.Fatalf("the draws ended at %v, before the trace looped twice", now)
	}
}
