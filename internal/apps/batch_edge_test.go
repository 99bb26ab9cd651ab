package apps

import (
	"slices"
	"testing"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

func TestBatchJobTinyWork(t *testing.T) {
	// Work far smaller than a chunk still completes exactly.
	loop, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("t", hypervisor.ElasticGroup, 2, 2)
	job := NewBatchJob("tiny", loop, vm, []BatchPhase{
		{Kind: CPUPhase, Work: 100 * sim.Microsecond},
	}, nil)
	job.Start()
	loop.RunUntil(sim.Second)
	if !job.Finished() {
		t.Fatal("tiny job never finished")
	}
	// Exactly the work plus one dispatch's scheduling overhead.
	if got := job.FinishedAt(); got < 100*sim.Microsecond || got > 110*sim.Microsecond {
		t.Fatalf("finished at %v, want ~100us", got)
	}
	if vm.CPUTime() != 100*sim.Microsecond {
		t.Fatalf("cpu time %v", vm.CPUTime())
	}
}

func TestBatchJobParallelismOne(t *testing.T) {
	// A serial phase must not exceed one concurrent chunk even with many
	// cores available.
	loop, m := rig(t, 4)
	m.SetInitialSplit(0)
	vm := m.AddVM("s", hypervisor.ElasticGroup, 4, 4)
	job := NewBatchJob("serial", loop, vm, []BatchPhase{
		{Kind: CPUPhase, Work: 40 * sim.Millisecond, Parallelism: 1},
	}, nil)
	job.Start()
	loop.RunUntil(10 * sim.Millisecond)
	if busy := m.BusyCores(hypervisor.ElasticGroup); busy != 1 {
		t.Fatalf("serial phase uses %d cores", busy)
	}
	loop.RunUntil(sim.Second)
	// Serial work on one core takes its duration plus per-chunk dispatch
	// overhead (8 chunks x <=6us).
	if got := job.FinishedAt(); got < 40*sim.Millisecond || got > 40*sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("finished at %v, want ~40ms", got)
	}
}

func TestBatchJobStartTwicePanics(t *testing.T) {
	loop, m := rig(t, 2)
	vm := m.AddVM("x", hypervisor.ElasticGroup, 2, 2)
	job := NewBatchJob("x", loop, vm, []BatchPhase{{Kind: CPUPhase, Work: 1}}, nil)
	job.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	job.Start()
}

func TestBatchJobOnDoneCallbackOnce(t *testing.T) {
	loop, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("d", hypervisor.ElasticGroup, 2, 2)
	calls := 0
	job := NewBatchJob("d", loop, vm, []BatchPhase{
		{Kind: CPUPhase, Work: sim.Millisecond},
		{Kind: IOPhase, IOTime: sim.Millisecond},
	}, func(sim.Time) { calls++ })
	job.Start()
	loop.RunUntil(sim.Second)
	if calls != 1 {
		t.Fatalf("onDone called %d times", calls)
	}
}

// batchPhaseTimes runs job on a 6-core machine whose primary allocation
// swings between 1 and 4 cores every 37 ms, so cores leave and join the
// ElasticVM in the middle of its chunks. It returns the time each phase
// began, then the completion time.
func batchPhaseTimes(t *testing.T, build func(*sim.Loop, *hypervisor.VM) *BatchJob) []sim.Time {
	t.Helper()
	loop, m := rig(t, 6)
	m.SetInitialSplit(2)
	vm := m.AddVM("elastic", hypervisor.ElasticGroup, 6, 6)
	job := build(loop, vm)
	var at []sim.Time
	job.SetPhaseHook(func(phase, phases int, finished bool) { at = append(at, loop.Now()) })
	swing := 0
	loop.NewTicker(37*sim.Millisecond, 37*sim.Millisecond, func() {
		swing++
		if _, err := m.SetPrimaryCores(1 + 3*(swing%2)); err != nil {
			t.Fatal(err)
		}
	})
	job.Start()
	loop.RunUntil(120 * sim.Second)
	if !job.Finished() || job.FinishedAt() != at[len(at)-1] {
		t.Fatalf("finished %v at %v, last boundary %v", job.Finished(), job.FinishedAt(), at)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return at
}

// TestBatchJobPhaseTimesPinned pins, to the nanosecond, every phase
// boundary and the completion of an HDInsight and a TeraSort run while the
// ElasticVM grows and shrinks under them. The speedup tests only bound
// completion times; this is the reference for any change to how a job
// feeds its phases to the VM.
func TestBatchJobPhaseTimesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*sim.Loop, *hypervisor.VM) *BatchJob
		want  []sim.Time
	}{
		{"hdinsight", func(l *sim.Loop, vm *hypervisor.VM) *BatchJob { return HDInsight(l, vm, nil) }, []sim.Time{
			0, 120086425, 821671707, 941748250, 1637233491, 1757311980, 2450837988, 2570916855,
			3265836065, 3385922301, 4081395154, 4201480907, 4896942767, 5017026052, 5710007122,
			5830094438, 6521668627, 6641759510, 7335835186, 7455921985, 8151410259, 8271487318,
			8966962834, 9087051638, 9780006929,
		}},
		{"terasort", func(l *sim.Loop, vm *hypervisor.VM) *BatchJob { return TeraSort(l, vm, nil) }, []sim.Time{
			0, 2000000000, 6002853524, 9002853524, 13576688093, 15576688093, 16577423535,
		}},
	} {
		if got := batchPhaseTimes(t, tc.build); !slices.Equal(got, tc.want) {
			t.Errorf("%s phase boundaries\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
