package harness

import "testing"

// TestParsePolicy pins the -policy table both single-server commands
// parse: names and defaults (fixedbuffer's buffer is 4 cores in both),
// and refusal of everything the controller constructors would panic on.
func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]string{
		"smartharvest":   "smartharvest",
		"fixedbuffer":    "fixedbuffer-4",
		"fixedbuffer:0":  "fixedbuffer-0",
		"fixedbuffer:3":  "fixedbuffer-3",
		"fixedbuffer:7":  "fixedbuffer-7",
		"fixedbuffer:10": "fixedbuffer-10",
		"prevpeak":       "prevpeak",
		"prevpeak:10":    "prevpeak10",
		"ewma":           "ewma",
		"noharvest":      "noharvest",
	} {
		f, err := ParsePolicy(in, 10, "")
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", in, err)
			continue
		}
		if got := f(10).Name(); got != want {
			t.Errorf("ParsePolicy(%q) -> %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{
		"nope", "fixedbuffer:x", "fixedbuffer:z",
		"fixedbuffer:-1", "fixedbuffer:40", "prevpeak:-2", "prevpeak:0", // constructor panics at 10 cores
		"ewma:3", "smartharvest:1", "noharvest:0", // no argument to take
	} {
		if _, err := ParsePolicy(bad, 10, ""); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
	if _, err := ParsePolicy("noharvest", 0, ""); err == nil {
		t.Error("ParsePolicy accepted an allocation of no cores")
	}
}

// TestParsePolicyPredictor pins how a predictor composes with -policy:
// every learner.Zoo name selects smartharvest's predictor, and naming one
// for any other policy, or an unknown one, is refused.
func TestParsePolicyPredictor(t *testing.T) {
	for _, kind := range allPredictorKinds() {
		f, err := ParsePolicy("smartharvest", 10, kind.String())
		if err != nil {
			t.Errorf("ParsePolicy(smartharvest, %q): %v", kind, err)
			continue
		}
		if got := f(10).Name(); got != "smartharvest" {
			t.Errorf("ParsePolicy(smartharvest, %q) -> controller %q", kind, got)
		}
	}
	if _, err := ParsePolicy("smartharvest", 10, "nope"); err == nil {
		t.Error("ParsePolicy accepted an unknown predictor")
	}
	if _, err := ParsePolicy("ewma", 10, "mlp"); err == nil {
		t.Error("ParsePolicy accepted a predictor with a non-smartharvest policy")
	}
}
