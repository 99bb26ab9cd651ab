package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartharvest/internal/cluster"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/sched"
)

// counts are the layer counters of one scenario run, summed over a pass.
// Those read off a Result are always filled; polls and controller time come
// from the controller wrapper, and the cluster* ones from the fleet's
// reference runs, so they exist on a traced pass only.
type counts [numCounts]float64

const (
	cPolls = iota
	cWindows
	cControllerNs
	cRequests
	cResizes
	cSafeguards
	cQoSTrips
	cResizeRetries
	cDegradations
	cFaults
	cEvents
	cJSONLBytes
	cViolations
	cJobs
	cEvictions
	cRequeues
	cPlacementRetries
	cQuarantines
	cRevenue
	cSLOMet
	cSLOJobs
	cClusterRuns
	cClusterNewFleetMs
	cClusterRunMs
	cClusterFinishMs
	cClusterServerSimS
	cClusterWallS
	numCounts
)

func (c *counts) add(o counts) {
	for i, v := range o {
		c[i] += v
	}
}

func (c *counts) addSingle(r *harness.Result) {
	for _, p := range r.Primaries {
		c[cRequests] += float64(p.Completed)
	}
	c[cWindows] = float64(r.Windows)
	c[cResizes] = float64(r.Resizes)
	c[cSafeguards] = float64(r.Safeguards)
	c[cQoSTrips] = float64(r.QoSTrips)
	c[cResizeRetries] = float64(r.ResizeRetries)
	c[cDegradations] = float64(r.Degradations)
	c[cFaults] = float64(r.FaultsInjected)
	if r.Check != nil {
		// The checker is last in the observer chain, so what it saw is what
		// every sink of the scenario was handed.
		c[cEvents] = float64(r.Check.Events)
		c[cViolations] = float64(len(r.Check.Violations) + r.Check.Dropped)
	}
}

func (c *counts) addFleet(r *sched.Result) {
	for _, s := range r.Fleet.PerServer {
		c[cSafeguards] += float64(s.Safeguards)
		c[cQoSTrips] += float64(s.QoSTrips)
	}
	c[cRequests] = float64(r.Fleet.TenantLatency.Count)
	c[cFaults] = float64(r.Fleet.FaultsInjected)
	c[cEvents] = float64(r.Check.Events)
	c[cViolations] = float64(len(r.Check.Violations) + r.Check.Dropped)
	c[cJobs] = float64(r.Submitted)
	c[cEvictions] = float64(r.Evictions)
	c[cRequeues] = float64(r.Requeues)
	c[cPlacementRetries] = float64(r.PlacementRetries)
	c[cQuarantines] = float64(r.Quarantines)
	c[cSLOMet] = float64(r.SLOMet)
	c[cSLOJobs] = float64(r.SLOJobs)
	if r.Market != nil {
		c[cRevenue] = r.Market.Revenue
	}
}

func (c *counts) addController(t *controllerTimer) {
	c[cPolls] = float64(t.polls)
	c[cWindows] = float64(t.windows)
	c[cControllerNs] = float64(t.ns)
}

// controllerTimer times and counts every OnWindowEnd of the controllers it
// wraps. A window hands the controller exactly the polls the agent sampled,
// so the wrapper counts polls without attaching an observer, which would
// change what the nil-observer workloads run.
type controllerTimer struct {
	windows, polls uint64
	ns             time.Duration
}

func (t *controllerTimer) observe(start time.Time, samples int) {
	t.ns += time.Since(start)
	t.windows++
	t.polls += uint64(samples)
}

// The wrappers embed the concrete controller, so the optional interfaces the
// agent asserts for (core.AllocAware, core.Checkpointer) stay exactly those
// of the wrapped type and the simulated behaviour cannot change.
type timedSmartHarvest struct {
	*core.SmartHarvest
	t *controllerTimer
}

func (c timedSmartHarvest) OnWindowEnd(w core.Window) int {
	defer c.t.observe(time.Now(), len(w.Samples))
	return c.SmartHarvest.OnWindowEnd(w)
}

type timedNoHarvest struct {
	*core.NoHarvest
	t *controllerTimer
}

func (c timedNoHarvest) OnWindowEnd(w core.Window) int {
	defer c.t.observe(time.Now(), len(w.Samples))
	return c.NoHarvest.OnWindowEnd(w)
}

func (t *controllerTimer) wrap(f harness.ControllerFactory) harness.ControllerFactory {
	return func(alloc int) core.Controller {
		switch c := f(alloc).(type) {
		case *core.SmartHarvest:
			return timedSmartHarvest{c, t}
		case *core.NoHarvest:
			return timedNoHarvest{c, t}
		default:
			panic(fmt.Sprintf("shbench: no timed wrapper for controller %T", c))
		}
	}
}

// span is one timed interval recorded from the benchmark's own code, around a
// call into a layer. Times are milliseconds since the process started.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start_ms"`
	End      float64 `json:"end_ms"`
	Parent   int     `json:"parent"` // index into the span list, -1 for the root
	Workload string  `json:"workload"`
	Scenario string  `json:"scenario,omitempty"`
}

// tracer holds a traced run's spans in memory until the run ends.
type tracer struct {
	workload string
	spans    []span
	cur      int // the span an op's own spans hang under
}

func sinceStartMs() float64 { return float64(time.Since(processStart)) / 1e6 }

func (t *tracer) begin(name, scenario string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: sinceStartMs(), Parent: parent,
		Workload: t.workload, Scenario: scenario})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) float64 {
	t.spans[id].End = sinceStartMs()
	return t.spans[id].End - t.spans[id].Start
}

// selfMs is a span's duration minus what its children cover.
func (t *tracer) selfMs(id int) float64 {
	self := t.spans[id].End - t.spans[id].Start
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.End - s.Start
		}
	}
	return self
}

// clusterReference runs the plain fleet under cfg (no scheduler, bully off)
// in three spans, which is both the traced run's view of the cluster layer
// and the reference sched.overhead_frac compares sched.Run with.
func (t *tracer) clusterReference(cfg cluster.Config, scenario string, c *counts) error {
	cfg.DisableElasticBully = true
	root := t.begin("cluster.reference", scenario, t.cur)
	id := t.begin("cluster.NewFleet", scenario, root)
	f, err := cluster.NewFleet(cfg)
	c[cClusterNewFleetMs] += t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("sim.Loop.RunUntil", scenario, root)
	f.Loop().RunUntil(f.End())
	c[cClusterRunMs] += t.end(id)
	id = t.begin("cluster.Finish", scenario, root)
	_, err = f.Finish()
	c[cClusterFinishMs] += t.end(id)
	c[cClusterWallS] += t.end(root) / 1e3
	c[cClusterRuns]++
	c[cClusterServerSimS] += float64(cfg.Servers) * f.End().Seconds()
	return err
}

// write stores the spans with each one's self time under out/.
func (t *tracer) write(dir string, ledger []ledgerRow) (string, error) {
	type spanOut struct {
		span
		SelfMs float64 `json:"self_ms"`
	}
	out := struct {
		Workload string      `json:"workload"`
		Spans    []spanOut   `json:"spans"`
		Ledger   []ledgerRow `json:"ledger"`
	}{Workload: t.workload, Ledger: ledger}
	for i, s := range t.spans {
		out.Spans = append(out.Spans, spanOut{s, t.selfMs(i)})
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
