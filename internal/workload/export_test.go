package workload

import "smartharvest/internal/sim"

// DrawAhead hands a and s to a running input pipeline from now on and
// returns what stands in for them and what stops it: the external tests'
// handle on the pipeline.
func DrawAhead(a Arrival, s ServiceDist, now sim.Time) (Arrival, ServiceDist, func()) {
	p := newPipeline(a, s, now)
	go p.produce()
	return p, p, p.close
}

// BlockLen is blockLen for the external tests.
const BlockLen = blockLen
