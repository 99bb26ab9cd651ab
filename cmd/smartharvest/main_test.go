package main

import (
	"testing"

	"smartharvest"
)

// TestParsePolicy pins the -policy names the command accepts and that
// the allocation a policy argument is checked against grows with the
// number of primaries.
func TestParsePolicy(t *testing.T) {
	good := map[string]string{
		"smartharvest":  "smartharvest",
		"fixedbuffer":   "fixedbuffer-4",
		"fixedbuffer:7": "fixedbuffer-7",
		"prevpeak":      "prevpeak",
		"prevpeak:10":   "prevpeak10",
		"ewma":          "ewma",
		"noharvest":     "noharvest",
	}
	for in, want := range good {
		f, err := parsePolicy(in, "", 1)
		if err != nil {
			t.Errorf("parsePolicy(%q): %v", in, err)
			continue
		}
		if got := f(10).Name(); got != want {
			t.Errorf("parsePolicy(%q) -> %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"nope", "fixedbuffer:x", "fixedbuffer:11"} {
		if _, err := parsePolicy(bad, "", 1); err == nil {
			t.Errorf("parsePolicy(%q) accepted", bad)
		}
	}
	if _, err := parsePolicy("fixedbuffer:11", "", 2); err != nil {
		t.Errorf("parsePolicy(fixedbuffer:11) with two primaries: %v", err)
	}
}

// TestParseFaultPlanRoundTrip pins the -faults CLI syntax: every plan a
// user can type — agent keys, fleet keys, and mixes — must survive
// parse → String → parse unchanged.
func TestParseFaultPlanRoundTrip(t *testing.T) {
	empty, err := smartharvest.ParseFaultPlan("")
	if err != nil {
		t.Fatalf("ParseFaultPlan(\"\"): %v", err)
	}
	if empty != (smartharvest.FaultPlan{}) || empty.String() != "none" {
		t.Errorf("empty spec parsed to %+v (%q), want the zero plan rendered as \"none\"", empty, empty)
	}
	cases := []string{
		"hfail=0.05,drop=0.01",
		"stall=0.001,stalldur=60ms",
		"crash=0.002,restartdur=250ms,losemodel=true",
		"scrash=0.002,srestartdur=300ms",
		"gdrop=0.2,gdelay=0.1,gdelaydur=5ms",
		"rstale=0.1,rloss=0.05",
		"hfail=0.02,stale=0.01,scrash=0.001,gdrop=0.25,rstale=0.3,rloss=0.1",
	}
	for _, in := range cases {
		plan, err := smartharvest.ParseFaultPlan(in)
		if err != nil {
			t.Errorf("ParseFaultPlan(%q): %v", in, err)
			continue
		}
		again, err := smartharvest.ParseFaultPlan(plan.String())
		if err != nil {
			t.Errorf("ParseFaultPlan(%q).String() = %q does not reparse: %v", in, plan.String(), err)
			continue
		}
		if again != plan {
			t.Errorf("ParseFaultPlan(%q) round-trip changed the plan:\n first %+v\nsecond %+v", in, plan, again)
		}
	}
}

// TestParseFaultPlanRejectsGarbage pins the rejection side: malformed
// pairs, unknown keys, and out-of-range values must error rather than
// silently injecting nothing.
func TestParseFaultPlanRejectsGarbage(t *testing.T) {
	cases := []string{
		"nope=1",           // unknown key
		"scrash",           // no value
		"scrash=",          // empty value
		"scrash=abc",       // not a number
		"scrash=-0.1",      // negative probability
		"gdrop=1.5",        // probability above 1
		"rloss=2",          // probability above 1
		"srestartdur=5",    // duration without a unit
		"srestartdur=-1ms", // negative duration
		"gdelaydur=xyz",    // unparsable duration
		"losemodel=maybe",  // not a bool
		"scrash=0.1,,",     // empty pair
		"=0.5",             // empty key
	}
	for _, in := range cases {
		if _, err := smartharvest.ParseFaultPlan(in); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted garbage", in)
		}
	}
}

func TestParseBatch(t *testing.T) {
	for _, in := range []string{"cpubully", "hdinsight", "terasort", "none"} {
		kind, err := smartharvest.ParseBatchKind(in)
		if err != nil {
			t.Errorf("ParseBatchKind(%q): %v", in, err)
			continue
		}
		if kind.String() != in {
			t.Errorf("ParseBatchKind(%q).String() = %q", in, kind.String())
		}
	}
	if _, err := smartharvest.ParseBatchKind("nope"); err == nil {
		t.Error("ParseBatchKind accepted junk")
	}
}
