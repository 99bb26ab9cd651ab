package sched

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from this build's output")

// goldenFleet is the fleet all three pinned runs share: three servers
// under tenant churn heavy enough that harvest collapses under running
// jobs inside two simulated seconds.
func goldenFleet(seed uint64) cluster.Config {
	return cluster.Config{
		Servers:      3,
		ArrivalRate:  4,
		MeanLifetime: 600 * sim.Millisecond,
		Duration:     1750 * sim.Millisecond,
		Warmup:       250 * sim.Millisecond,
		Seed:         seed,
	}
}

// goldenJobs are short enough to complete, be evicted, and miss
// deadlines within the run.
var goldenJobs = []JobSpec{
	{Work: 150 * sim.Millisecond, Width: 2, Deadline: 400 * sim.Millisecond},
	{Work: 400 * sim.Millisecond, Width: 4, Deadline: 900 * sim.Millisecond},
	{Work: 800 * sim.Millisecond, Width: 6},
}

const goldenChaosPlan = "scrash=0.02,srestartdur=150ms,gdrop=0.35,gdelay=0.15,rstale=0.2,rloss=0.1"

const goldenPools = "overcommit=8;name=cheap,tier=spot,reserved=6,price=0.5,at=250ms;" +
	"name=mid,tier=standard,reserved=3,size=150ms,at=300ms;name=gold,tier=premium,reserved=2,price=4,at=350ms"

// TestSchedGolden pins the scheduler byte for byte against its own past:
// for three small configurations — the plain placement core, the
// self-healing paths under a fleet fault plan, and capacity pools
// composed with that plan — the full JSONL job/fleet/pool event trace
// and a JSON dump of every Result field must match testdata/. Each run
// is verified by a JobChecker and must actually reach the paths it
// exists to pin (asserted on event counts in the trace), so a golden
// cannot go vacuous. Regenerate with `go test -run TestSchedGolden
// -update` — only for an intended behaviour change.
func TestSchedGolden(t *testing.T) {
	chaos := func(seed uint64) Config {
		fc := goldenFleet(seed)
		fc.Faults = mustPlan(t, goldenChaosPlan)
		return Config{
			Fleet: fc, Policy: BestFit, ArrivalRate: 30, Jobs: goldenJobs,
			QuarantineAfter: 2, QuarantineDur: 100 * sim.Millisecond,
			ProbationDur: 100 * sim.Millisecond, DegradeEnter: 6,
		}
	}
	pooled := chaos(10)
	pooled.Policy = FirstFit
	pooled.Market = mustPools(t, goldenPools)

	cases := []struct {
		name string
		cfg  Config
		// reach lists what the trace must contain at least once: event
		// names, or literal `"key":value` fragments.
		reach []string
		// market reports whether the run settles a ledger.
		market bool
	}{
		{
			name: "churn-predicted",
			cfg:  Config{Fleet: goldenFleet(10), Policy: Predicted, ArrivalRate: 30, Jobs: goldenJobs},
			reach: []string{"job-submit", "job-start", "job-evict", "job-requeue",
				"job-complete", "job-slo-miss", `"final":true`},
		},
		{
			name: "fleet-chaos",
			cfg:  chaos(8),
			reach: []string{"job-evict", "job-requeue", "job-complete",
				`"kind":"grant-drop"`, `"kind":"grant-delay"`, `"kind":"read-stale"`,
				`"kind":"reconcile-loss"`, "placement-retry", "server-quarantine", "server-probation",
				"server-crash", "server-restart", "admission-degraded"},
		},
		{
			name: "pools-chaos",
			cfg:  pooled,
			reach: []string{"job-evict", "job-complete", "placement-retry",
				"server-quarantine", "server-probation", "server-crash",
				"admission-degraded", "pool-open", "pool-grant", "pool-account",
				"pool-evict", "pool-settle"},
			market: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			w := obs.NewJSONL(&buf)
			cfg := tc.cfg
			cfg.Fleet.Observer = w
			cfg.Checker = check.NewJobChecker()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK() {
				t.Fatalf("invariant violations: %v", res.Check.First())
			}
			trace := buf.Bytes()
			for _, ev := range tc.reach {
				if ev[0] != '"' {
					ev = `"ev":"` + ev + `"`
				}
				if !bytes.Contains(trace, []byte(ev)) {
					t.Errorf("vacuous golden: no %s in the trace", ev)
				}
			}
			if tc.cfg.Fleet.Faults.FleetEnabled() {
				// The crash-orphan and degraded-admission paths, and both
				// directions of the degradation hysteresis.
				if res.Orphaned == 0 || res.Degraded == 0 || res.PlacementRetries == 0 || res.Quarantines == 0 {
					t.Errorf("vacuous golden: orphaned %d, degraded %d, retries %d, quarantines %d",
						res.Orphaned, res.Degraded, res.PlacementRetries, res.Quarantines)
				}
				if !bytes.Contains(trace, []byte(`"entered":false`)) {
					t.Error("vacuous golden: admission never recovered")
				}
			}
			if tc.market {
				m := res.Market
				if m == nil || m.Admitted != 3 {
					t.Fatalf("vacuous golden: want all three tiers admitted, got %+v", m)
				}
				for _, tier := range market.Tiers() {
					if m.EvictionsByTier[tier] == 0 {
						t.Errorf("vacuous golden: no capacity eviction charged to tier %s", tier)
					}
				}
				if !bytes.Contains(trace, []byte(`"reason":"exhausted"`)) {
					t.Error("vacuous golden: no exhausted-pool eviction")
				}
				if m.Penalties == 0 {
					t.Error("vacuous golden: no SLA penalty accrued")
				}
			} else if res.Market != nil || bytes.Contains(trace, []byte(`"ev":"pool-`)) {
				t.Error("market residue in a pool-free run")
			}
			dump, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			dump = append(dump, '\n')
			compareGolden(t, tc.name+".jsonl", trace)
			compareGolden(t, tc.name+".result.json", dump)
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s diverges at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}
