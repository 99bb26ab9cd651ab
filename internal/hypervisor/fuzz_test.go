package hypervisor

import (
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// TestRandomOperationSoak drives the machine with random sequences of
// submits, submit bursts, resizes, VM arrivals/departures and time advances
// across both mechanisms, checking conservation invariants throughout. This
// is the scheduler's property test: no core is ever double-booked, group
// counts always sum to the total, per-VM running counts stay within
// allocation, the guest run queues stay coherent, and completed work is
// exactly what was submitted.
func TestRandomOperationSoak(t *testing.T) {
	for _, mech := range []Mechanism{CpuGroups, IPI} {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(mech.String(), func(t *testing.T) {
				driveMachine(t, mech, seed, 3000, simrng.New(seed).Intn)
			})
		}
	}
}

// FuzzMachine is the same driver with every choice read from the fuzz
// input, one byte a choice (cycling, so short inputs still run), which lets
// the fuzzer steer op sequences the seeded soak would not reach — say a
// burst, a partial drain and a removal back to back.
func FuzzMachine(f *testing.F) {
	f.Add(false, []byte{0})
	f.Add(false, []byte{10, 0, 23, 11, 150, 10, 1, 23, 11, 90, 8, 0, 1, 9, 5})      // bursts, partial drains, a removal
	f.Add(true, []byte{10, 1, 9, 6, 3, 11, 40, 6, 8, 0, 0, 3, 0, 200, 11, 7, 9, 2}) // bursts against IPI resizes
	f.Add(true, []byte("\xff\x0a\x0b\x00queue\x0a\x0a\x0b\x08\x01"))
	f.Fuzz(func(t *testing.T, ipi bool, data []byte) {
		if len(data) == 0 {
			return
		}
		mech := CpuGroups
		if ipi {
			mech = IPI
		}
		off := 0
		pick := func(n int) int {
			b := data[off%len(data)]
			off++
			return int(b) % n
		}
		driveMachine(t, mech, uint64(len(data)), min(4*len(data), 2000), pick)
	})
}

// driveMachine runs steps random operations, every choice taken from
// pick(n) in [0, n), then drains the machine and checks work accounting.
func driveMachine(t *testing.T, mech Mechanism, seed uint64, steps int, pick func(n int) int) {
	t.Helper()
	loop := sim.NewLoop()
	cfg := DefaultConfig(8)
	cfg.Mechanism = mech
	cfg.Seed = seed
	m, err := New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInitialSplit(6)
	evm := m.AddVM("elastic", ElasticGroup, 8, 8)

	type tracked struct {
		vm        *VM
		submitted sim.Time
		items     int
		completed int
		atRemoval int // completions when the VM was removed
	}
	var primaries []*tracked
	addPrimary := func() {
		tr := &tracked{}
		tr.vm = m.AddVM("p", PrimaryGroup, 4, 4)
		primaries = append(primaries, tr)
	}
	addPrimary()
	addPrimary()
	submit := func(tr *tracked) {
		d := sim.Time(1+pick(3000)) * sim.Microsecond
		tr.submitted += d
		tr.items++
		tr.vm.Submit(d, func() { tr.completed++ })
	}

	var elasticSubmitted sim.Time
	for step := 0; step < steps; step++ {
		switch pick(12) {
		case 0, 1, 2, 3: // submit primary work
			if tr := primaries[pick(len(primaries))]; !tr.vm.Removed() {
				submit(tr)
			}
		case 4, 5: // submit elastic work
			d := sim.Time(1+pick(5000)) * sim.Microsecond
			elasticSubmitted += d
			evm.Submit(d, nil)
		case 6, 7: // resize
			m.SetPrimaryCores(pick(9))
		case 8: // churn: remove one primary, maybe add another
			if len(primaries) > 1 && pick(10) < 3 {
				if tr := primaries[pick(len(primaries))]; !tr.vm.Removed() {
					m.RemoveVM(tr.vm)
					tr.atRemoval = tr.completed
				}
			}
			if pick(10) < 3 && len(primaries) < 6 {
				addPrimary()
			}
		case 9: // let time pass
			loop.RunUntil(loop.Now() + sim.Time(pick(20))*sim.Millisecond)
		case 10: // a burst larger than the vCPU count: the guest queue backs up
			if tr := primaries[pick(len(primaries))]; !tr.vm.Removed() {
				for n := tr.vm.NumVCPUs() + 1 + pick(24); n > 0; n-- {
					submit(tr)
				}
			}
		case 11: // a partial drain: the queue head advances under a standing backlog
			loop.RunUntil(loop.Now() + sim.Time(pick(200))*10*sim.Microsecond)
		}
		m.checkInvariants(t)
		if t.Failed() {
			t.Fatalf("invariants failed at step %d (mech %v seed %d)", step, mech, seed)
		}
	}
	// Drain everything under a split that gives both groups capacity (a
	// random final split may have starved one group entirely).
	m.SetPrimaryCores(4)
	loop.RunUntil(loop.Now() + 60*sim.Second)
	m.checkInvariants(t)

	// Work accounting: live primaries completed everything they were
	// given; a removed one completed nothing after its removal; the
	// elastic VM executed exactly what it was given (it was never removed,
	// so all its work must eventually finish).
	for i, tr := range primaries {
		if tr.vm.Removed() {
			if tr.vm.CPUTime() > tr.submitted {
				t.Fatalf("primary %d executed more than submitted", i)
			}
			if tr.completed != tr.atRemoval {
				t.Fatalf("primary %d: %d completions after its removal", i, tr.completed-tr.atRemoval)
			}
			continue
		}
		if tr.vm.CPUTime() != tr.submitted || tr.completed != tr.items || tr.vm.QueueLen() != 0 {
			t.Fatalf("primary %d executed %v of %v submitted, completed %d of %d items, %d queued",
				i, tr.vm.CPUTime(), tr.submitted, tr.completed, tr.items, tr.vm.QueueLen())
		}
	}
	if evm.CPUTime() != elasticSubmitted {
		t.Fatalf("elastic executed %v of %v submitted", evm.CPUTime(), elasticSubmitted)
	}
	// Wait samples must all be non-negative.
	for _, w := range m.DrainPrimaryWaits() {
		if w < 0 {
			t.Fatalf("negative wait %d", w)
		}
	}
}
