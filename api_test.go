package smartharvest_test

import (
	"errors"

	"testing"

	"smartharvest"
)

// TestWorkloadCatalog runs every public workload constructor briefly to
// confirm each builds and serves traffic through the facade.
func TestWorkloadCatalog(t *testing.T) {
	specs := []smartharvest.PrimarySpec{
		smartharvest.Memcached(40000),
		smartharvest.MemcachedSwinging(60000),
		smartharvest.IndexServe(500),
		smartharvest.Moses(400),
		smartharvest.ImgDNN(2000),
		smartharvest.SquareWave(8, 1, 500*smartharvest.Millisecond),
		smartharvest.MemcachedVaryingLoad([]float64{20000, 60000}, smartharvest.Second),
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := smartharvest.Run(smartharvest.Scenario{
				Name:              "catalog-" + spec.Name,
				Primaries:         []smartharvest.PrimarySpec{spec},
				Duration:          2 * smartharvest.Second,
				Warmup:            smartharvest.Second,
				Seed:              4,
				LongTermSafeguard: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Primaries[0].Completed == 0 {
				t.Fatalf("%s served no requests", spec.Name)
			}
			if res.Primaries[0].Latency.P99 <= 0 {
				t.Fatalf("%s recorded no latency", spec.Name)
			}
		})
	}
}

// TestBatchCatalog exercises every batch kind through the facade.
func TestBatchCatalog(t *testing.T) {
	for _, batch := range []smartharvest.BatchKind{
		smartharvest.BatchCPUBully, smartharvest.BatchHDInsight,
		smartharvest.BatchTeraSort, smartharvest.BatchNone,
	} {
		batch := batch
		t.Run(batch.String(), func(t *testing.T) {
			res, err := smartharvest.Run(smartharvest.Scenario{
				Name:              "batch-" + batch.String(),
				Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(20000)},
				Batch:             batch,
				Duration:          2 * smartharvest.Second,
				Warmup:            smartharvest.Second,
				Seed:              6,
				LongTermSafeguard: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if batch == smartharvest.BatchNone && res.ElasticCPUSeconds > 0.01 {
				t.Fatalf("idle ElasticVM executed %v core-s", res.ElasticCPUSeconds)
			}
			if batch == smartharvest.BatchCPUBully && res.ElasticCPUSeconds < 1 {
				t.Fatalf("bully executed only %v core-s", res.ElasticCPUSeconds)
			}
		})
	}
}

// TestMechanisms exercises both reassignment mechanisms via the facade.
func TestMechanisms(t *testing.T) {
	for _, mech := range []smartharvest.Mechanism{smartharvest.CpuGroups, smartharvest.IPI} {
		res, err := smartharvest.Run(smartharvest.Scenario{
			Name:              "mech-" + mech.String(),
			Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(20000)},
			Mechanism:         mech,
			Duration:          2 * smartharvest.Second,
			Warmup:            smartharvest.Second,
			Seed:              8,
			LongTermSafeguard: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mechanism != mech.String() {
			t.Fatalf("result mechanism %q", res.Mechanism)
		}
	}
}

// TestChurnViaFacade drives the churn API through the public surface.
func TestChurnViaFacade(t *testing.T) {
	arrival := smartharvest.IndexServe(500)
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "facade-churn",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(20000)},
		Duration:          4 * smartharvest.Second,
		Warmup:            smartharvest.Second,
		Seed:              9,
		LongTermSafeguard: true,
		Churn: []smartharvest.ChurnEvent{
			{At: 3 * smartharvest.Second, Depart: -1, Arrive: &arrival},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Primaries) != 2 {
		t.Fatalf("primaries %d", len(res.Primaries))
	}
}

// TestPredictorCatalog exercises every predictor kind through the
// facade: name round-trip, NewSmartHarvestPredictor selection, and an
// end-to-end run per kind.
func TestPredictorCatalog(t *testing.T) {
	names := smartharvest.PredictorNames()
	if len(names) < 6 {
		t.Fatalf("predictor zoo has %d entries: %v", len(names), names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			kind, err := smartharvest.ParsePredictor(name)
			if err != nil {
				t.Fatal(err)
			}
			if kind.String() != name {
				t.Fatalf("ParsePredictor(%q).String() = %q", name, kind)
			}
			ctrl, err := smartharvest.NewSmartHarvestPredictor(kind, smartharvest.SmartHarvestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := smartharvest.Run(smartharvest.Scenario{
				Name:              "pred-" + name,
				Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(20000)},
				Controller:        ctrl,
				LongTermSafeguard: true,
				Duration:          2 * smartharvest.Second,
				Warmup:            smartharvest.Second,
				Seed:              5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Policy != "smartharvest" {
				t.Fatalf("policy %q", res.Policy)
			}
			if res.Windows == 0 {
				t.Fatal("no learning windows")
			}
		})
	}
}

// TestPredictorErrors pins the facade's predictor sentinels.
func TestPredictorErrors(t *testing.T) {
	if _, err := smartharvest.ParsePredictor("nope"); !errors.Is(err, smartharvest.ErrUnknownPredictor) {
		t.Fatalf("ParsePredictor(nope) = %v", err)
	}
	for _, kind := range []smartharvest.PredictorKind{99, -1} {
		f, err := smartharvest.NewSmartHarvestPredictor(kind, smartharvest.SmartHarvestOptions{})
		if f != nil || !errors.Is(err, smartharvest.ErrUnknownPredictor) {
			t.Errorf("NewSmartHarvestPredictor(%d) = %v, %v; want ErrUnknownPredictor", int(kind), f != nil, err)
		}
	}
}
