package main

import (
	"testing"

	"smartharvest/internal/core"
	"smartharvest/internal/hostcg"
	"smartharvest/internal/sim"
)

func TestParseCores(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0,2,4", []int{0, 2, 4}, false},
		{"0-1, 4-5", []int{0, 1, 4, 5}, false},
		{"7", []int{7}, false},
		{"", nil, true},
		{"a-b", nil, true},
		{"3-1", nil, true},
		{"x", nil, true},
	}
	for _, c := range cases {
		got, err := parseCores(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseCores(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCores(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseCores(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseCores(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestAgentConfig(t *testing.T) {
	backend, err := hostcg.New(hostcg.Config{PrimaryCgroup: "/p", ElasticCgroup: "/e", Cores: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ms := sim.Millisecond
	at := func(window, poll sim.Time) core.Config {
		cfg := core.DefaultConfig(0, 1)
		cfg.Window, cfg.PollInterval = window, poll
		return agentConfig(cfg, 3)
	}
	for _, c := range []struct {
		window, poll sim.Time
		wantMissed   int // degrade threshold: a tenth of the polls in a window
	}{
		{25 * ms, ms, 2},
		{25 * ms, 50 * sim.Microsecond, 50},
		{25 * ms, 25 * ms, 1},
	} {
		cfg := at(c.window, c.poll)
		if got := cfg.Resilience.DegradeAfterMissedPolls; got != c.wantMissed {
			t.Errorf("window %v poll %v: degrade after %d missed polls, want %d", c.window, c.poll, got, c.wantMissed)
		}
		if _, err := core.NewAgent(sim.NewLoop(), backend, core.NewNoHarvest(3), cfg); err != nil {
			t.Errorf("window %v poll %v: %v", c.window, c.poll, err)
		}
	}
	// -long-term-safeguard is on by default, but the agent runs the QoS
	// guard only for a policy with safeguards, as the simulator does.
	for policy, want := range map[string]bool{"smartharvest": true, "fixedbuffer:1": false} {
		ctrl, err := buildController(policy, 3)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewAgent(sim.NewLoop(), backend, ctrl, at(25*ms, ms))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Config().LongTermSafeguard; got != want {
			t.Errorf("-policy %s: long-term safeguard %v, want %v", policy, got, want)
		}
	}
	// Bad flag values are NewAgent's to reject, not agentConfig's to panic on.
	for _, poll := range []sim.Time{0, -ms, 50 * ms} {
		if _, err := core.NewAgent(sim.NewLoop(), backend, core.NewNoHarvest(3), at(25*ms, poll)); err == nil {
			t.Errorf("-poll %v accepted", poll)
		}
	}
}

func TestBuildController(t *testing.T) {
	for in, want := range map[string]string{
		"smartharvest":  "smartharvest",
		"fixedbuffer:3": "fixedbuffer-3",
		"prevpeak:10":   "prevpeak10",
		"noharvest":     "noharvest",
	} {
		c, err := buildController(in, 10)
		if err != nil {
			t.Errorf("buildController(%q): %v", in, err)
			continue
		}
		if c.Name() != want {
			t.Errorf("buildController(%q) -> %q, want %q", in, c.Name(), want)
		}
	}
	for _, bad := range []string{"nope", "fixedbuffer:z", "fixedbuffer:11"} {
		if _, err := buildController(bad, 10); err == nil {
			t.Errorf("buildController(%q) accepted", bad)
		}
	}
}
