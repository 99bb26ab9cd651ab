package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

var updateQoSWaits = flag.Bool("update", false, "rewrite testdata/qos-waits.txt from this build's output")

// qosRecorder sits between an agent and its hypervisor and logs, for
// every long-term safeguard check, how many primary dispatch waits the
// agent read and how many of them exceeded its QoSWaitThreshold.
type qosRecorder struct {
	core.Hypervisor
	now    func() sim.Time
	log    strings.Builder
	checks int
}

func (r *qosRecorder) SetPrimaryWaitThreshold(t sim.Time) {
	r.Hypervisor.(core.PrimaryWaitCounter).SetPrimaryWaitThreshold(t)
}

func (r *qosRecorder) DrainPrimaryWaitCounts() (waits, over int) {
	waits, over = r.Hypervisor.(core.PrimaryWaitCounter).DrainPrimaryWaitCounts()
	r.checks++
	fmt.Fprintf(&r.log, "%v %d %d\n", r.now(), waits, over)
	return waits, over
}

// recordQoS puts a qosRecorder in front of a's hypervisor. The agent keeps
// its hypervisor private; the test reaches it by reflection so the runs
// are assembled exactly as harness.Run and the fleet assemble them.
func recordQoS(a *core.Agent, now func() sim.Time) *qosRecorder {
	f := reflect.ValueOf(a).Elem().FieldByName("hv")
	hv := (*core.Hypervisor)(unsafe.Pointer(f.UnsafeAddr()))
	r := &qosRecorder{Hypervisor: *hv, now: now}
	*hv = r
	return r
}

// qosServerRun runs one harness server for 10 s the way harness.Run does
// (one primary, the CPU bully, SmartHarvest with the long-term guard on
// at the given wait threshold) and returns its check log and the agent's
// counters.
func qosServerRun(t *testing.T, spec apps.PrimarySpec, plan faults.Plan, threshold sim.Time) (*qosRecorder, core.Stats) {
	t.Helper()
	loop := sim.NewLoop()
	cfg := core.DefaultConfig(harness.DefaultPrimaryVMCores, harness.ElasticMin)
	cfg.LongTermSafeguard = true
	cfg.QoSWaitThreshold = threshold
	srv, err := harness.NewServer(loop, simrng.New(1), hypervisor.CpuGroups, plan, nil,
		core.NewSmartHarvest(harness.DefaultPrimaryVMCores, core.SmartHarvestOptions{}), cfg, harness.DefaultPrimaryVMCores)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := recordQoS(srv.Agent, loop.Now)
	if _, err := srv.AddPrimary(spec, 0); err != nil {
		t.Fatal(err)
	}
	apps.NewCPUBully(srv.Elastic).Start()
	srv.Agent.Start()
	loop.RunUntil(10 * sim.Second)
	return rec, srv.Agent.Stats()
}

// TestQoSWaitCountsPinned pins the (waits, over) pair every long-term
// safeguard check reads, one line a check, in three runs: Memcached
// swinging at 20 k req/s under the paper's 50 µs threshold; Memcached 40 k
// under an agent crash/stall plan and a 10 µs threshold, so most checks
// count waits over it; and server 0 of a two-server fleet under the
// fleetchaos plan (x4), whose server crashes kill its agent: a dead agent
// skips its checks and reads the waits that piled up at its revival. A
// change to how the waits are collected must leave every line as it is.
func TestQoSWaitCountsPinned(t *testing.T) {
	var out strings.Builder
	section := func(name string, rec *qosRecorder) {
		fmt.Fprintf(&out, "# %s: %d checks\n%s", name, rec.checks, rec.log.String())
	}

	rec, _ := qosServerRun(t, apps.MemcachedSwinging(20000), faults.Plan{}, 50*sim.Microsecond)
	section("memcached-swinging-20k", rec)

	plan, err := faults.ParsePlan("crash=0.004,stall=0.01,noise=0.01,hfail=0.05")
	if err != nil {
		t.Fatal(err)
	}
	rec, st := qosServerRun(t, apps.Memcached(40000), plan, 10*sim.Microsecond)
	if st.Crashes == 0 || st.Stalls == 0 {
		t.Errorf("agent chaos run: %d crashes, %d stalls; want both", st.Crashes, st.Stalls)
	}
	section("memcached-40k-agent-chaos", rec)

	fleetPlan, err := faults.ParsePlan("scrash=0.008,gdrop=0.8,gdelay=0.4,rstale=0.4,rloss=0.2")
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFleet(Config{
		Servers: 2, ArrivalRate: 1.2, MeanLifetime: 15 * sim.Second,
		Duration: 10 * sim.Second, Warmup: sim.Second, Seed: 1, Faults: fleetPlan,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec = recordQoS(f.servers[0].Agent, f.loop.Now)
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if skipped := int(f.end/(500*sim.Millisecond)) - rec.checks; skipped < 1 {
		t.Errorf("fleet run: %d checks skipped; a server crash must kill server 0's agent across one", skipped)
	}
	section("fleetchaos-x4-server-0", rec)

	path := filepath.Join("testdata", "qos-waits.txt")
	if *updateQoSWaits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("per-check (waits, over) pairs moved; got:\n%s\nwant:\n%s", got, want)
	}
}
