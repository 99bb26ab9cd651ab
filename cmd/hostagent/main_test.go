package main

import (
	"testing"
	"time"

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
	for _, bad := range []string{"nope", "fixedbuffer:z"} {
		if _, err := buildController(bad, 10); err == nil {
			t.Errorf("buildController(%q) accepted", bad)
		}
	}
}

func TestAgentConfig(t *testing.T) {
	backend, err := hostcg.New(hostcg.Config{PrimaryCgroup: "/p", ElasticCgroup: "/e", Cores: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	for _, c := range []struct {
		window, poll time.Duration
		wantMissed   int // degrade threshold: a tenth of the polls in a window
	}{
		{25 * ms, ms, 2},
		{25 * ms, 50 * time.Microsecond, 50},
		{25 * ms, 25 * ms, 1},
	} {
		cfg := agentConfig(3, c.window, c.poll, true)
		if got := cfg.Resilience.DegradeAfterMissedPolls; got != c.wantMissed {
			t.Errorf("window %v poll %v: degrade after %d missed polls, want %d", c.window, c.poll, got, c.wantMissed)
		}
		if _, err := core.NewAgent(sim.NewLoop(), backend, core.NewNoHarvest(3), cfg); err != nil {
			t.Errorf("window %v poll %v: %v", c.window, c.poll, err)
		}
	}
	// Bad flag values are NewAgent's to reject, not agentConfig's to panic on.
	for _, poll := range []time.Duration{0, -ms, 50 * ms} {
		if _, err := core.NewAgent(sim.NewLoop(), backend, core.NewNoHarvest(3), agentConfig(3, 25*ms, poll, true)); err == nil {
			t.Errorf("-poll %v accepted", poll)
		}
	}
}
