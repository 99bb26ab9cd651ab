package hostcg

import (
	"fmt"
	"strings"
	"testing"

	"smartharvest/internal/core"
	"smartharvest/internal/sim"
)

// fakeOS is an in-memory host.
type fakeOS struct {
	files  map[string]string
	writes []string // "path=data" log
	pids   map[string][]int
	errOn  map[string]error
}

func newFakeOS() *fakeOS {
	return &fakeOS{
		files: map[string]string{},
		pids:  map[string][]int{},
		errOn: map[string]error{},
	}
}

func (f *fakeOS) ReadFile(path string) ([]byte, error) {
	if err := f.errOn[path]; err != nil {
		return nil, err
	}
	data, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("no such file %s", path)
	}
	return []byte(data), nil
}

func (f *fakeOS) WriteFile(path string, data []byte) error {
	if err := f.errOn[path]; err != nil {
		return err
	}
	f.files[path] = string(data)
	f.writes = append(f.writes, path+"="+string(data))
	return nil
}

func (f *fakeOS) ListPIDs(dir string) ([]int, error) {
	if err := f.errOn[dir]; err != nil {
		return nil, err
	}
	return f.pids[dir], nil
}

func testConfig(osi OS) Config {
	return Config{
		PrimaryCgroup: "/cg/primary",
		ElasticCgroup: "/cg/elastic",
		Cores:         []int{0, 1, 2, 3, 4, 5},
		ProcRoot:      "/proc",
		OS:            osi,
	}
}

// statLine builds a /proc/stat cpu line: user nice system idle iowait.
func statLine(cpu int, nonIdle, idle int64) string {
	return fmt.Sprintf("cpu%d %d 0 0 %d 0 0 0 0 0 0", cpu, nonIdle, idle)
}

func setStat(f *fakeOS, lines ...string) {
	f.files["/proc/stat"] = "cpu  0 0 0 0 0\n" + strings.Join(lines, "\n") + "\n"
}

func TestInterfaceCompliance(t *testing.T) {
	var _ core.Hypervisor = (*Backend)(nil)
}

func TestCpusList(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 2, 3, 5}, "0,2-3,5"},
		{[]int{5, 4, 0}, "0,4-5"}, // unsorted input
	}
	for _, c := range cases {
		if got := cpusList(c.in); got != c.want {
			t.Errorf("cpusList(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestInitSplitsCpusets(t *testing.T) {
	f := newFakeOS()
	b, err := New(testConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	if got := f.files["/cg/primary/cpuset.cpus"]; got != "0-4" {
		t.Fatalf("primary cpuset %q", got)
	}
	if got := f.files["/cg/elastic/cpuset.cpus"]; got != "5" {
		t.Fatalf("elastic cpuset %q", got)
	}
	if b.TotalCores() != 6 {
		t.Fatalf("total %d", b.TotalCores())
	}
}

func TestSetPrimaryCoresWritesAndClamps(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	res, err := b.SetPrimaryCores(2)
	if err != nil || !res.Applied {
		t.Fatalf("resize: applied=%v err=%v", res.Applied, err)
	}
	// The paper's ~200 µs per resize is what the agent is told a resize
	// costs.
	if res.Latency != 200*sim.Microsecond {
		t.Fatalf("resize latency %v, want 200µs", res.Latency)
	}
	if f.files["/cg/primary/cpuset.cpus"] != "0-1" ||
		f.files["/cg/elastic/cpuset.cpus"] != "2-5" {
		t.Fatalf("cpusets %v", f.files)
	}
	// Repeating the same value is a no-op.
	if res, err := b.SetPrimaryCores(2); err != nil || res.Applied {
		t.Fatalf("no-op resize: applied=%v err=%v", res.Applied, err)
	}
	// Clamp: primary can never take every core (elastic minimum 1) nor
	// go below 1.
	b.SetPrimaryCores(99)
	if f.files["/cg/primary/cpuset.cpus"] != "0-4" {
		t.Fatalf("clamped high: %q", f.files["/cg/primary/cpuset.cpus"])
	}
	b.SetPrimaryCores(-5)
	if f.files["/cg/primary/cpuset.cpus"] != "0" {
		t.Fatalf("clamped low: %q", f.files["/cg/primary/cpuset.cpus"])
	}
	if b.Resizes() != 3 {
		t.Fatalf("resizes %d", b.Resizes())
	}
}

func TestGrowReceivingGroupFirst(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	f.writes = nil
	b.SetPrimaryCores(2) // elastic grows: elastic must be written first
	if len(f.writes) != 2 || !strings.HasPrefix(f.writes[0], "/cg/elastic/") {
		t.Fatalf("write order %v", f.writes)
	}
}

func TestSetPrimaryCoresWriteError(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	f.errOn["/cg/primary/cpuset.cpus"] = fmt.Errorf("EPERM")
	if res, err := b.SetPrimaryCores(2); err == nil || res.Applied {
		t.Fatalf("failed resize: applied=%v err=%v", res.Applied, err)
	}
	if b.LastError() == nil {
		t.Fatal("error not recorded")
	}
}

func TestBusyPrimaryCores(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	// First reading establishes the baseline: busy = 0 (no deltas yet).
	setStat(f,
		statLine(0, 100, 100), statLine(1, 100, 100), statLine(2, 100, 100),
		statLine(3, 100, 100), statLine(4, 100, 100), statLine(5, 100, 100))
	if got := b.BusyPrimaryCores(); got != 0 {
		t.Fatalf("first reading busy %d", got)
	}
	// Second reading: cores 0 and 1 fully busy, 2 half busy (at the 0.5
	// threshold), the rest idle.
	setStat(f,
		statLine(0, 200, 100), statLine(1, 200, 100), statLine(2, 150, 150),
		statLine(3, 100, 200), statLine(4, 100, 200), statLine(5, 200, 100))
	if got := b.BusyPrimaryCores(); got != 3 {
		t.Fatalf("busy %d, want 3 (two full + one at threshold)", got)
	}
}

// TestBusySubJiffyPolls polls faster than /proc/stat ticks: at a 1 ms
// poll and USER_HZ=100 a saturated core's jiffies move once every ten
// reads. A core whose jiffies stood still keeps its last verdict, so
// once the first tick is seen every read counts all five primaries busy.
func TestBusySubJiffyPolls(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	var jiffies int64
	for read := range 1000 {
		if read > 0 && read%10 == 0 {
			jiffies++
		}
		lines := make([]string, 6)
		for cpu := range lines {
			lines[cpu] = statLine(cpu, 100+jiffies, 100)
		}
		setStat(f, lines...)
		if got := b.BusyPrimaryCores(); jiffies > 0 && got != 5 {
			t.Fatalf("read %d, %d jiffies in: busy %d, want 5", read, jiffies, got)
		}
	}
}

func TestBusyExcludesElasticCores(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	b.SetPrimaryCores(2)
	setStat(f,
		statLine(0, 100, 100), statLine(1, 100, 100), statLine(2, 100, 100),
		statLine(3, 100, 100), statLine(4, 100, 100), statLine(5, 100, 100))
	b.BusyPrimaryCores()
	// Everything busy, but only cores 0-1 are primary now.
	setStat(f,
		statLine(0, 300, 100), statLine(1, 300, 100), statLine(2, 300, 100),
		statLine(3, 300, 100), statLine(4, 300, 100), statLine(5, 300, 100))
	if got := b.BusyPrimaryCores(); got != 2 {
		t.Fatalf("busy %d, want 2", got)
	}
}

func TestBusyToleratesReadErrors(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	setStat(f, statLine(0, 100, 100), statLine(1, 100, 100), statLine(2, 100, 100),
		statLine(3, 100, 100), statLine(4, 100, 100), statLine(5, 100, 100))
	b.BusyPrimaryCores()
	setStat(f, statLine(0, 300, 100), statLine(1, 300, 100), statLine(2, 100, 300),
		statLine(3, 100, 300), statLine(4, 100, 300), statLine(5, 100, 300))
	if got := b.BusyPrimaryCores(); got != 2 {
		t.Fatalf("busy %d, want 2", got)
	}
	// The Hypervisor contract: a lost reading is -1, not a replay of the
	// previous one — whether the read or the parse failed.
	f.errOn["/proc/stat"] = fmt.Errorf("transient")
	if got := b.BusyPrimaryCores(); got != -1 {
		t.Fatalf("failed read returned %d, want -1", got)
	}
	if b.LastError() == nil {
		t.Fatal("error not recorded")
	}
	delete(f.errOn, "/proc/stat")
	f.files["/proc/stat"] = "cpuX 1 2 3 4 5\n"
	if got := b.BusyPrimaryCores(); got != -1 {
		t.Fatalf("failed parse returned %d, want -1", got)
	}
}

// Lost host readings must reach the agent's missed-poll ladder: each one
// is counted, and enough of them in one window degrade the agent, which
// writes the full allocation back to the primary cpuset.
func TestLostReadingsDegradeAgent(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	setStat(f, statLine(0, 100, 100)) // never advances: every core reads idle
	loop := sim.NewLoop()
	cfg := core.DefaultConfig(5, 1)
	cfg.PollInterval = sim.Millisecond
	cfg.Resilience.DegradeAfterMissedPolls = 5
	a, err := core.NewAgent(loop, b, core.NewFixedBuffer(5, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	loop.RunUntil(100 * sim.Millisecond)
	if got := f.files["/cg/primary/cpuset.cpus"]; got != "0" {
		t.Fatalf("primary cpuset %q before the fault, want the idle host harvested down to \"0\"", got)
	}

	// Three failing reads: counted, below the threshold.
	f.errOn["/proc/stat"] = fmt.Errorf("transient")
	loop.RunUntil(loop.Now() + 3*sim.Millisecond)
	delete(f.errOn, "/proc/stat")
	if a.Stats().MissedPolls != 3 || a.Stats().Degraded {
		t.Fatalf("missed %d degraded %v after 3 failing reads, want 3 and false", a.Stats().MissedPolls, a.Stats().Degraded)
	}
	loop.RunUntil(200 * sim.Millisecond)

	// A dead /proc/stat: the threshold is crossed inside one window.
	f.errOn["/proc/stat"] = fmt.Errorf("gone")
	loop.RunUntil(300 * sim.Millisecond)
	if !a.Stats().Degraded {
		t.Fatalf("agent not degraded after %d lost readings", a.Stats().MissedPolls)
	}
	if got := f.files["/cg/primary/cpuset.cpus"]; got != "0-4" {
		t.Fatalf("primary cpuset %q while degraded, want the full allocation \"0-4\"", got)
	}
}

func TestDrainPrimaryWaits(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	f.pids["/cg/primary"] = []int{101, 102}
	f.files["/proc/101/schedstat"] = "5000 1000 42\n"
	f.files["/proc/102/schedstat"] = "9000 2000 77\n"
	// First drain establishes baselines: no deltas.
	if got := b.DrainPrimaryWaits(); len(got) != 0 {
		t.Fatalf("first drain %v", got)
	}
	f.files["/proc/101/schedstat"] = "6000 1500 44\n"
	f.files["/proc/102/schedstat"] = "9500 2300 79\n"
	got := b.DrainPrimaryWaits()
	if len(got) != 2 || got[0] != 500 || got[1] != 300 {
		t.Fatalf("deltas %v, want [500 300]", got)
	}
}

func TestDrainForgetsExitedTasks(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	f.pids["/cg/primary"] = []int{101}
	f.files["/proc/101/schedstat"] = "1 100 1\n"
	b.DrainPrimaryWaits()
	// Task exits; a new task reuses the pid later with a LOWER counter.
	f.pids["/cg/primary"] = []int{}
	b.DrainPrimaryWaits()
	f.pids["/cg/primary"] = []int{101}
	f.files["/proc/101/schedstat"] = "1 5 1\n"
	if got := b.DrainPrimaryWaits(); len(got) != 0 {
		t.Fatalf("stale baseline produced deltas %v", got)
	}
}

func TestDrainSkipsVanishedProc(t *testing.T) {
	f := newFakeOS()
	b, _ := New(testConfig(f))
	if err := b.Init(); err != nil {
		t.Fatal(err)
	}
	f.pids["/cg/primary"] = []int{101, 102}
	f.files["/proc/101/schedstat"] = "1 100 1\n"
	// 102 has no schedstat (exited between list and read): skipped.
	b.DrainPrimaryWaits()
	f.files["/proc/101/schedstat"] = "1 150 1\n"
	got := b.DrainPrimaryWaits()
	if len(got) != 1 || got[0] != 50 {
		t.Fatalf("deltas %v", got)
	}
}

func TestParseProcStatErrors(t *testing.T) {
	if _, err := parseProcStat("intr 0 0\n"); err == nil {
		t.Fatal("no cpu lines accepted")
	}
	if _, err := parseProcStat("cpu0 a b c d e\n"); err == nil {
		t.Fatal("bad jiffies accepted")
	}
}

func TestParseSchedstat(t *testing.T) {
	if _, err := parseSchedstatWait("123"); err == nil {
		t.Fatal("short schedstat accepted")
	}
	v, err := parseSchedstatWait("10 20 30")
	if err != nil || v != 20 {
		t.Fatalf("parse = %d, %v", v, err)
	}
}

func TestParsePIDs(t *testing.T) {
	pids, err := parsePIDs("1\n22\n333\n")
	if err != nil || len(pids) != 3 || pids[2] != 333 {
		t.Fatalf("pids %v err %v", pids, err)
	}
	if _, err := parsePIDs("abc\n"); err == nil {
		t.Fatal("bad pid accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{PrimaryCgroup: "/a", ElasticCgroup: "/b", Cores: []int{0}},
		{PrimaryCgroup: "/a", ElasticCgroup: "/b", Cores: []int{0, 0}},
		{PrimaryCgroup: "/a", ElasticCgroup: "/b", Cores: []int{0, -1}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
