// Package hostcg implements the agent's Hypervisor contract on a real
// Linux host using cpuset cgroups (v2), so the same EVMAgent that drives
// the simulator can harvest cores between two groups of processes on a
// physical machine: a "primary" cgroup (the latency-critical tenants) and
// an "elastic" cgroup (the batch consumer).
//
// The mapping from the paper's Hyper-V mechanisms:
//
//   - cpugroup membership    -> cpuset.cpus of the two cgroups
//   - busy-core monitoring   -> per-CPU utilization deltas from
//     /proc/stat, restricted to the primary group's CPUs
//   - vCPU dispatch waits    -> run-queue wait from each primary task's
//     /proc/<pid>/schedstat delta
//
// All operating-system access goes through the OS interface so the
// backend is fully unit-testable without root or cgroups; RealOS binds it
// to the actual /sys and /proc trees. This backend is best-effort: Linux
// exposes coarser signals than a hypervisor does, and writes to
// cpuset.cpus take effect at the scheduler's leisure — which is exactly
// the regime the paper's cpugroups version of SmartHarvest is designed
// for.
package hostcg

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"smartharvest/internal/core"
	"smartharvest/internal/sim"
)

// OS abstracts the host interfaces the backend needs. Implementations
// must be safe for sequential use by one agent goroutine.
type OS interface {
	// ReadFile reads a whole (virtual) file.
	ReadFile(path string) ([]byte, error)
	// WriteFile overwrites a (virtual) file.
	WriteFile(path string, data []byte) error
	// ListPIDs returns the member process IDs of a cgroup directory.
	ListPIDs(cgroupDir string) ([]int, error)
}

// RealOS binds OS to the actual filesystem.
type RealOS struct{}

// ReadFile implements OS.
func (RealOS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile implements OS.
func (RealOS) WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// ListPIDs implements OS by reading cgroup.procs.
func (RealOS) ListPIDs(cgroupDir string) ([]int, error) {
	data, err := os.ReadFile(filepath.Join(cgroupDir, "cgroup.procs"))
	if err != nil {
		return nil, err
	}
	return parsePIDs(string(data))
}

func parsePIDs(s string) ([]int, error) {
	var pids []int
	for _, line := range strings.Fields(s) {
		pid, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("hostcg: bad pid %q: %v", line, err)
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

// A core counts busy when at least busyThreshold of a poll interval was
// non-idle. resizeLatency, the paper's per-resize cost, is what the agent
// is told a resize takes: cpuset writes are fast but their effect is
// scheduler-paced.
const (
	busyThreshold = 0.5
	resizeLatency = 200 * sim.Microsecond
)

// Config describes the host layout.
type Config struct {
	// PrimaryCgroup and ElasticCgroup are cgroup v2 directory paths
	// (e.g. /sys/fs/cgroup/primary).
	PrimaryCgroup string
	ElasticCgroup string
	// Cores is the ordered list of CPU ids in the harvesting pool. The
	// first n go to the primary group when SetPrimaryCores(n) is called;
	// the rest to the elastic group.
	Cores []int
	// ProcRoot is the procfs mount (default /proc).
	ProcRoot string
	// OS provides host access (default RealOS).
	OS OS
}

func (c *Config) applyDefaults() {
	if c.ProcRoot == "" {
		c.ProcRoot = "/proc"
	}
	if c.OS == nil {
		c.OS = RealOS{}
	}
}

func (c *Config) validate() error {
	if c.PrimaryCgroup == "" || c.ElasticCgroup == "" {
		return fmt.Errorf("hostcg: both cgroup paths are required")
	}
	if len(c.Cores) < 2 {
		return fmt.Errorf("hostcg: need at least 2 cores, got %d", len(c.Cores))
	}
	seen := map[int]bool{}
	for _, c := range c.Cores {
		if c < 0 || seen[c] {
			return fmt.Errorf("hostcg: invalid or duplicate core id %d", c)
		}
		seen[c] = true
	}
	return nil
}

// cpuTimes holds one core's jiffies from /proc/stat and, for a primary
// core, the busy verdict they last gave.
type cpuTimes struct {
	total int64
	idle  int64
	busy  bool
}

// Backend implements core.Hypervisor over Linux cgroups.
type Backend struct {
	cfg     Config
	primary int // current primary core count

	prevCPU   map[int]cpuTimes
	prevWait  map[int]int64 // pid -> cumulative run-queue wait ns
	waitBuf   []int64
	resizes   uint64
	lastError error
}

// Compile-time: *Backend must not be a core.EventDrivenBusy — its busy
// reading comes from /proc/stat, not from events of the agent's loop, so
// every poll has to be a real one. Were the marker method declared on
// Backend, this selector would be ambiguous and the package would not
// build.
var _ = struct {
	*Backend
	core.EventDrivenBusy
}.BusyChangesOnlyInLoopEvents

// New validates the configuration and returns a backend. It does not
// touch the host until Init.
func New(cfg Config) (*Backend, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Backend{
		cfg:      cfg,
		primary:  len(cfg.Cores),
		prevCPU:  map[int]cpuTimes{},
		prevWait: map[int]int64{},
	}, nil
}

// Init applies the initial split: every core to the primary group, the
// elastic group restricted to the last core.
func (b *Backend) Init() error {
	return b.applyCpusets(len(b.cfg.Cores) - 1)
}

// TotalCores implements core.Hypervisor.
func (b *Backend) TotalCores() int { return len(b.cfg.Cores) }

// Resizes returns how many cpuset updates have been applied.
func (b *Backend) Resizes() uint64 { return b.resizes }

// LastError returns the most recent host-access error (monitoring paths
// are best-effort and must not crash the agent loop).
func (b *Backend) LastError() error { return b.lastError }

// cpusList renders core ids as a cpuset.cpus string ("0-3" style ranges
// where possible, else comma-separated).
func cpusList(cores []int) string {
	if len(cores) == 0 {
		return ""
	}
	s := append([]int(nil), cores...)
	sort.Ints(s)
	var parts []string
	start, prev := s[0], s[0]
	flush := func() {
		if start == prev {
			parts = append(parts, strconv.Itoa(start))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, c := range s[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return strings.Join(parts, ",")
}

// applyCpusets writes the two cpuset.cpus files for a primary size of n.
func (b *Backend) applyCpusets(n int) error {
	if n < 1 {
		n = 1
	}
	if n > len(b.cfg.Cores)-1 {
		n = len(b.cfg.Cores) - 1
	}
	primary := b.cfg.Cores[:n]
	elastic := b.cfg.Cores[n:]
	// Order matters: grow the receiving group first so no group is ever
	// left without an allowed CPU.
	pPath := filepath.Join(b.cfg.PrimaryCgroup, "cpuset.cpus")
	ePath := filepath.Join(b.cfg.ElasticCgroup, "cpuset.cpus")
	if err := b.cfg.OS.WriteFile(ePath, []byte(cpusList(elastic))); err != nil {
		return fmt.Errorf("hostcg: elastic cpuset: %w", err)
	}
	if err := b.cfg.OS.WriteFile(pPath, []byte(cpusList(primary))); err != nil {
		return fmt.Errorf("hostcg: primary cpuset: %w", err)
	}
	b.primary = n
	return nil
}

// SetPrimaryCores implements core.Hypervisor.
func (b *Backend) SetPrimaryCores(n int) (core.ResizeResult, error) {
	if n == b.primary {
		return core.ResizeResult{}, nil
	}
	if err := b.applyCpusets(n); err != nil {
		b.lastError = err
		return core.ResizeResult{}, err
	}
	b.resizes++
	return core.ResizeResult{Applied: true, Latency: resizeLatency}, nil
}

// BusyPrimaryCores implements core.Hypervisor: it reads /proc/stat and
// counts primary-group cores whose non-idle share since the previous
// reading exceeds the busy threshold. A core whose jiffies did not move
// since (a poll faster than USER_HZ ticks) keeps its previous verdict,
// which errs toward the primaries keeping their cores. A failed read or
// parse is a lost reading (-1, with LastError set), never a replay of
// the previous one: the agent counts it toward its missed-poll
// degradation ladder.
func (b *Backend) BusyPrimaryCores() int {
	data, err := b.cfg.OS.ReadFile(filepath.Join(b.cfg.ProcRoot, "stat"))
	if err != nil {
		b.lastError = err
		return -1
	}
	now, err := parseProcStat(string(data))
	if err != nil {
		b.lastError = err
		return -1
	}
	busy := 0
	for _, cpu := range b.cfg.Cores[:b.primary] {
		cur, ok := now[cpu]
		if !ok {
			continue
		}
		if prev, seen := b.prevCPU[cpu]; seen {
			if dTotal := cur.total - prev.total; dTotal > 0 {
				cur.busy = 1-float64(cur.idle-prev.idle)/float64(dTotal) >= busyThreshold
			} else {
				// Polled between two ticks: no news, keep the verdict.
				cur.busy = prev.busy
			}
		}
		b.prevCPU[cpu] = cur
		if cur.busy {
			busy++
		}
	}
	// Also refresh history for elastic cores so handovers are seamless.
	for _, cpu := range b.cfg.Cores[b.primary:] {
		if cur, ok := now[cpu]; ok {
			b.prevCPU[cpu] = cur
		}
	}
	return busy
}

// parseProcStat extracts per-CPU jiffies from /proc/stat content.
func parseProcStat(s string) (map[int]cpuTimes, error) {
	out := map[int]cpuTimes{}
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "cpu") || strings.HasPrefix(line, "cpu ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			continue
		}
		id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "cpu"))
		if err != nil {
			return nil, fmt.Errorf("hostcg: bad cpu line %q", line)
		}
		var total, idle int64
		for i, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("hostcg: bad jiffies in %q", line)
			}
			total += v
			if i == 3 || i == 4 { // idle + iowait
				idle += v
			}
		}
		out[id] = cpuTimes{total: total, idle: idle}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hostcg: no cpu lines in /proc/stat")
	}
	return out, nil
}

// DrainPrimaryWaits implements core.Hypervisor: it samples each primary
// task's cumulative run-queue wait from /proc/<pid>/schedstat and returns
// the per-task deltas since the previous drain. A delta is the closest
// host-side analogue of the paper's "vCPU wait time per dispatch"
// aggregated over a QoS window.
func (b *Backend) DrainPrimaryWaits() []int64 {
	out := b.waitBuf[:0]
	pids, err := b.cfg.OS.ListPIDs(b.cfg.PrimaryCgroup)
	if err != nil {
		b.lastError = err
		return nil
	}
	seen := map[int]bool{}
	for _, pid := range pids {
		seen[pid] = true
		data, err := b.cfg.OS.ReadFile(filepath.Join(b.cfg.ProcRoot, strconv.Itoa(pid), "schedstat"))
		if err != nil {
			continue // task exited between listing and reading
		}
		wait, err := parseSchedstatWait(string(data))
		if err != nil {
			b.lastError = err
			continue
		}
		if prev, ok := b.prevWait[pid]; ok && wait >= prev {
			out = append(out, wait-prev)
		}
		b.prevWait[pid] = wait
	}
	// Forget exited tasks.
	for pid := range b.prevWait {
		if !seen[pid] {
			delete(b.prevWait, pid)
		}
	}
	b.waitBuf = out
	return out
}

// parseSchedstatWait extracts the run-queue wait field (second value) of
// /proc/<pid>/schedstat.
func parseSchedstatWait(s string) (int64, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return 0, fmt.Errorf("hostcg: bad schedstat %q", s)
	}
	return strconv.ParseInt(fields[1], 10, 64)
}
