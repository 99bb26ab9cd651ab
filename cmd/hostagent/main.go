// Command hostagent runs the SmartHarvest EVMAgent against a real Linux
// host using cpuset cgroups (v2): it harvests cores from a "primary"
// cgroup of latency-critical processes for an "elastic" cgroup of batch
// processes. It runs the simulator's own EVMAgent (internal/core) on an
// event loop paced in real time (internal/rtagent), so the learner, both
// safeguards and the retry/degradation ladder are the same code.
//
// Setup (as root, cgroup v2):
//
//	mkdir /sys/fs/cgroup/primary /sys/fs/cgroup/elastic
//	echo "+cpuset" > /sys/fs/cgroup/cgroup.subtree_control
//	echo <primary pids> > /sys/fs/cgroup/primary/cgroup.procs
//	echo <batch pids>   > /sys/fs/cgroup/elastic/cgroup.procs
//	hostagent -primary-cgroup /sys/fs/cgroup/primary \
//	          -elastic-cgroup /sys/fs/cgroup/elastic \
//	          -cores 0-7 -policy smartharvest
//
// This is the best-effort host port of the paper's Hyper-V agent; see
// internal/hostcg for the signal mapping and its limitations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/hostcg"
	"smartharvest/internal/rtagent"
	"smartharvest/internal/sim"
)

// parseCores expands "0-3,6,8-9" into a core list.
func parseCores(spec string) ([]int, error) {
	var cores []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad core range %q", part)
			}
			for c := a; c <= b; c++ {
				cores = append(cores, c)
			}
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad core id %q", part)
		}
		cores = append(cores, c)
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("empty core list")
	}
	return cores, nil
}

// agentConfig completes the flags' agent configuration for a primary
// allocation of alloc cores.
func agentConfig(cfg core.Config, alloc int) core.Config {
	cfg.PrimaryAlloc = alloc
	// The default missed-poll threshold is a tenth of the simulator's 500
	// polls per window. Keep the ratio: at 25 polls per window a count of
	// 50 could never be reached and a dead /proc/stat would never degrade
	// the agent.
	if cfg.PollInterval > 0 {
		cfg.Resilience.DegradeAfterMissedPolls = max(1, int(cfg.Window/cfg.PollInterval)/10)
	}
	return cfg
}

// buildController builds the -policy controller for the agent's
// primary allocation of alloc cores.
func buildController(spec string, alloc int) (core.Controller, error) {
	newCtrl, err := harness.ParsePolicy(spec, alloc, "")
	if err != nil {
		return nil, err
	}
	return newCtrl(alloc), nil
}

func main() {
	primaryCg := flag.String("primary-cgroup", "", "cgroup v2 directory of the primary (latency-critical) processes")
	elasticCg := flag.String("elastic-cgroup", "", "cgroup v2 directory of the elastic (batch) processes")
	coreSpec := flag.String("cores", "", "harvesting core pool, e.g. 0-7 or 0,2,4-6")
	policy := flag.String("policy", "smartharvest", "harvesting policy: "+harness.PolicyUsage())
	// The flags fill the paper's agent configuration at a 1 ms poll, the
	// elastic group keeping one core.
	cfg := core.DefaultConfig(0, 1)
	cfg.PollInterval = sim.Millisecond
	flag.TextVar(&cfg.Window, "window", cfg.Window, "learning window")
	flag.TextVar(&cfg.PollInterval, "poll", cfg.PollInterval, "busy-core polling interval")
	flag.BoolVar(&cfg.LongTermSafeguard, "long-term-safeguard", cfg.LongTermSafeguard, "enable the QoS guard (for a policy with safeguards)")
	statsEvery := 10 * sim.Second
	flag.TextVar(&statsEvery, "stats", statsEvery, "stats reporting interval")
	modelFile := flag.String("model-file", "", "persist the predictor state here across restarts (smartharvest policy only)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hostagent: %v\n", err)
		os.Exit(1)
	}
	cores, err := parseCores(*coreSpec)
	if err != nil {
		fail(err)
	}
	backend, err := hostcg.New(hostcg.Config{
		PrimaryCgroup: *primaryCg,
		ElasticCgroup: *elasticCg,
		Cores:         cores,
	})
	if err != nil {
		fail(err)
	}
	// Every flag is checked before backend.Init writes the first cpuset.
	alloc := len(cores) - 1 // the elastic group keeps one core minimum
	ctrl, err := buildController(*policy, alloc)
	if err != nil {
		fail(err)
	}
	sh, _ := ctrl.(*core.SmartHarvest)
	if *modelFile != "" && sh == nil {
		fail(fmt.Errorf("-model-file requires the smartharvest policy"))
	}
	if *modelFile != "" {
		if f, err := os.Open(*modelFile); err == nil {
			loadErr := sh.LoadModel(f)
			f.Close()
			if loadErr != nil {
				fail(fmt.Errorf("loading %s: %w", *modelFile, loadErr))
			}
			fmt.Printf("hostagent: resumed learner state from %s\n", *modelFile)
		}
	}
	saveModel := func() {
		if *modelFile == "" || sh == nil {
			return
		}
		f, err := os.CreateTemp(filepath.Dir(*modelFile), ".model-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostagent: saving model: %v\n", err)
			return
		}
		saveErr := sh.SaveModel(f)
		if err := f.Close(); saveErr == nil {
			saveErr = err
		}
		if saveErr == nil {
			saveErr = os.Rename(f.Name(), *modelFile)
		}
		if saveErr != nil {
			os.Remove(f.Name())
			fmt.Fprintf(os.Stderr, "hostagent: saving model: %v\n", saveErr)
		}
	}
	loop := sim.NewLoop()
	agent, err := core.NewAgent(loop, backend, ctrl, agentConfig(cfg, alloc))
	if err != nil {
		fail(err)
	}
	if err := backend.Init(); err != nil {
		fail(err)
	}
	agent.Start()
	if statsEvery > 0 {
		loop.NewTicker(statsEvery, statsEvery, func() {
			st := agent.Stats()
			fmt.Printf("hostagent: target=%d windows=%d resizes=%d safeguards=%d qos-trips=%d missed-polls=%d degraded=%v\n",
				agent.Target(), st.Windows, st.Resizes, st.Safeguards, st.QoSTrips, st.MissedPolls, st.Degraded)
			if err := backend.LastError(); err != nil {
				fmt.Fprintf(os.Stderr, "hostagent: backend: %v\n", err)
			}
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("hostagent: harvesting %d cores (%s) with %s; ctrl-C to stop\n",
		len(cores), *coreSpec, ctrl.Name())
	rtagent.Run(ctx, loop, rtagent.RealClock{})
	// Give everything back on exit and persist what was learned.
	backend.SetPrimaryCores(len(cores) - 1)
	saveModel()
	fmt.Println("hostagent: stopped; cores returned to the primary cgroup")
}
