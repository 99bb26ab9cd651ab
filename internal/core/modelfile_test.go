package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartharvest/internal/learner"
)

var updateModelFile = flag.Bool("update", false, "rewrite testdata/csoaa-model.json from this build's output")

// modelFileWindow is a fixed, varying training stream: no two adjacent
// windows alike, so every weight of the saved model is exercised.
func modelFileWindow(i int) Window {
	base := 1 + i%4
	peak := base + (i/3)%3
	return Window{
		Samples:       []int{base, peak, base + 1, peak, base},
		Peak:          peak,
		Peak1s:        peak + i%2,
		Busy:          base,
		CurrentTarget: 10,
	}
}

// TestSmartHarvestModelFilePinned pins the host agent's -model-file bytes
// for the default CSOAA predictor: SaveModel after a fixed training stream
// reproduces the checked-in file byte for byte, and LoadModel followed by
// SaveModel round-trips it.
func TestSmartHarvestModelFilePinned(t *testing.T) {
	path := filepath.Join("testdata", "csoaa-model.json")
	s := NewSmartHarvest(10, SmartHarvestOptions{})
	for i := 0; i < 300; i++ {
		s.OnWindowEnd(modelFileWindow(i))
	}
	var got bytes.Buffer
	if err := s.SaveModel(&got); err != nil {
		t.Fatal(err)
	}
	if *updateModelFile {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("SaveModel wrote\n%s\nwant %s", got.Bytes(), want)
	}

	r := NewSmartHarvest(10, SmartHarvestOptions{})
	if err := r.LoadModel(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r.SaveModel(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("LoadModel+SaveModel wrote\n%s\nwant %s", again.Bytes(), want)
	}
}

// zooOptions runs the named learner.Zoo predictor.
func zooOptions(name string) SmartHarvestOptions {
	for _, e := range learner.Zoo {
		if e.Name == name {
			return SmartHarvestOptions{Predictor: e.New}
		}
	}
	panic("core: no zoo predictor " + name)
}

// TestLoadModelRejectsShapeMismatch: -model-file is read from disk, so a
// file for another feature count, class count or predictor is refused
// rather than loaded into a controller it would later crash.
func TestLoadModelRejectsShapeMismatch(t *testing.T) {
	row := "[0" + strings.Repeat(",0", 3) + "]"
	threeFeatures := `{"version":1,"classes":11,"nfeat":3,"lr":0.1,"updates":0,"weights":[` +
		row + strings.Repeat(","+row, 10) + "]}\n"
	s := NewSmartHarvest(10, SmartHarvestOptions{})
	if err := s.LoadModel(strings.NewReader(threeFeatures)); err == nil {
		t.Fatal("3-feature model file accepted")
	}
	s.OnWindowEnd(modelFileWindow(0))

	fixture, err := os.ReadFile(filepath.Join("testdata", "csoaa-model.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSmartHarvest(5, SmartHarvestOptions{}).LoadModel(bytes.NewReader(fixture)); err == nil {
		t.Fatal("11-class model file loaded into a 6-class controller")
	}
	if err := NewSmartHarvest(10, zooOptions("adagrad")).LoadModel(bytes.NewReader(fixture)); err == nil {
		t.Fatal("csoaa model file loaded into an adagrad controller")
	}
}

// TestCheckpointRoundTripAllocs bounds the allocations of one controller
// Checkpoint+Restore, the path every simulated agent crash-restart runs.
// The bounds are the counts measured on go1.24 before CSOAA and its
// AdaGrad variant shared one codec.
func TestCheckpointRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	for _, tc := range []struct {
		name string
		max  float64
	}{{"csoaa", 92}, {"adagrad", 154}, {"ensemble", 279}} {
		s := NewSmartHarvest(10, zooOptions(tc.name))
		for i := 0; i < 100; i++ {
			s.OnWindowEnd(modelFileWindow(i))
		}
		allocs := testing.AllocsPerRun(50, func() {
			data, err := s.Checkpoint()
			if err != nil {
				panic(err)
			}
			if err := s.Restore(data); err != nil {
				panic(err)
			}
		})
		t.Logf("%s: %v allocs per Checkpoint+Restore", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per Checkpoint+Restore, want <= %v", tc.name, allocs, tc.max)
		}
	}
}
