package workload

import (
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// burstThenQuiet is a square-wave overload (alternating hot and cool
// stretches of uniform arrivals) that stops at quietAt, so a test can let
// every admitted request drain and then compare exact counts.
type burstThenQuiet struct {
	hotGap, coolGap sim.Time
	period          sim.Time // hot for the first half, cool for the second
	quietAt         sim.Time
}

func (a burstThenQuiet) Next(now sim.Time) (sim.Time, int) {
	if now >= a.quietAt {
		return 1000 * sim.Second, 1
	}
	if now%a.period < a.period/2 {
		return a.hotGap, 2
	}
	return a.coolGap, 1
}

// checkFreeLists walks both free lists: a record returned twice shows up as
// a repeated pointer (a cycle), and a record on the list must be at rest.
func checkFreeLists(t *testing.T, s *Server) (requests, subtasks int) {
	t.Helper()
	seenR := map[*request]bool{}
	for r := s.freeRequests; r != nil; r = r.next {
		if seenR[r] {
			t.Fatalf("request record %p is on the free list twice", r)
		}
		seenR[r] = true
		if r.remaining != 0 || r.s != s {
			t.Fatalf("free request record has remaining=%d, server %p (want 0, %p)", r.remaining, r.s, s)
		}
	}
	seenT := map[*subtask]bool{}
	for st := s.freeSubtasks; st != nil; st = st.next {
		if seenT[st] {
			t.Fatalf("subtask record %p is on the free list twice", st)
		}
		seenT[st] = true
		if st.req != nil {
			t.Fatal("free subtask record still points at a request")
		}
	}
	return len(seenR), len(seenT)
}

// TestRequestRecordRecycling drives a 2-vCPU VM past saturation with a
// variable fan-out and staggered subtasks, so records are recycled many
// times while the guest queue backs up, wraps and drains, and checks the
// accounting the pooled records must preserve. One case removes the VM
// mid-flight.
func TestRequestRecordRecycling(t *testing.T) {
	const (
		warmup  = 100 * sim.Millisecond
		quietAt = 600 * sim.Millisecond
	)
	for _, tc := range []struct {
		name     string
		removeAt sim.Time // 0: never
	}{
		{name: "drain"},
		{name: "remove-vm", removeAt: 350 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, m, vm := newServerRig(t, 2)
			rng := simrng.New(21)
			// Mean fan-out 2.5 x 60 us on 2 vCPUs serves ~13 k req/s; the
			// hot half offers 20 k and backs up, the cool half 2.5 k and drains.
			srv := NewServer(loop, vm, ServerConfig{
				Name: "recycle",
				Arrival: burstThenQuiet{
					hotGap: 100 * sim.Microsecond, coolGap: 400 * sim.Microsecond,
					period: 40 * sim.Millisecond, quietAt: quietAt,
				},
				Service: NewExpService(rng.Split(), 60*sim.Microsecond),
				Fanout:  NewRangeFanout(rng.Split(), 1, 4),
				Stagger: NewExpService(rng.Split(), 30*sim.Microsecond),
				Warmup:  warmup,
			})
			srv.Start()
			loop.RunUntil(warmup - 1)
			offeredInWarmup := srv.Offered()
			maxQueue := 0
			for now := warmup; now < quietAt; now += sim.Millisecond {
				if tc.removeAt != 0 && now == tc.removeAt {
					break
				}
				loop.RunUntil(now)
				maxQueue = max(maxQueue, vm.QueueLen())
				if srv.Completed() > srv.Offered() {
					t.Fatalf("completed %d > offered %d at %v", srv.Completed(), srv.Offered(), now)
				}
			}
			if maxQueue < 100 {
				t.Fatalf("guest queue peaked at %d: the VM was never saturated", maxQueue)
			}

			if tc.removeAt != 0 {
				m.RemoveVM(vm)
				completed, recorded := srv.Completed(), srv.Latency().Summarize().Count
				if completed == 0 || completed >= srv.Offered() {
					t.Fatalf("removal not mid-flight: completed %d of %d", completed, srv.Offered())
				}
				loop.RunUntil(2 * sim.Second)
				if srv.Completed() != completed || srv.Latency().Summarize().Count != recorded {
					t.Fatalf("completions after RemoveVM: %d -> %d (histogram %d -> %d)",
						completed, srv.Completed(), recorded, srv.Latency().Summarize().Count)
				}
				checkFreeLists(t, srv)
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				return
			}

			loop.RunUntil(2 * sim.Second) // arrivals stopped at quietAt: everything drains
			if srv.Completed() != srv.Offered() {
				t.Fatalf("completed %d of %d offered after the drain", srv.Completed(), srv.Offered())
			}
			if got, want := srv.Latency().Summarize().Count, srv.Offered()-offeredInWarmup; got != want {
				t.Fatalf("latency histogram holds %d samples, want the %d post-warm-up completions", got, want)
			}
			// Every record is back, exactly once, and there are far fewer
			// records than requests: they were reused.
			requests, subtasks := checkFreeLists(t, srv)
			if requests == 0 || subtasks == 0 || uint64(requests) > srv.Offered()/4 {
				t.Fatalf("%d request and %d subtask records for %d requests", requests, subtasks, srv.Offered())
			}
			if vm.QueueLen() != 0 {
				t.Fatalf("guest queue %d after the drain", vm.QueueLen())
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRequestCompletingTwicePanics pins the recycling guard: a join that
// fires on a record already back on the free list is a bug upstream (a
// completion delivered twice), not something to count.
func TestRequestCompletingTwicePanics(t *testing.T) {
	loop, _, vm := newServerRig(t, 2)
	srv := NewServer(loop, vm, ServerConfig{
		Name: "once", Arrival: NewUniform(1000), Service: Deterministic(10 * sim.Microsecond),
	})
	srv.Start()
	loop.RunUntil(10*sim.Millisecond + 500*sim.Microsecond)
	r := srv.freeRequests
	if r == nil {
		t.Fatal("no record was returned to the free list")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.join()
}

type constFanout int

func (f constFanout) SampleFanout() int { return int(f) }

// TestServerFanoutBelowOneStillCompletes: a FanoutDist returning less than
// one used to bump Offered, submit nothing and never complete.
func TestServerFanoutBelowOneStillCompletes(t *testing.T) {
	for _, f := range []constFanout{0, -3} {
		loop, _, vm := newServerRig(t, 2)
		srv := NewServer(loop, vm, ServerConfig{
			Name:    "nofan",
			Arrival: NewUniform(1000),
			Service: Deterministic(100 * sim.Microsecond),
			Fanout:  f,
		})
		srv.Start()
		loop.RunUntil(100*sim.Millisecond + 500*sim.Microsecond)
		if srv.Offered() != 100 || srv.Completed() != srv.Offered() {
			t.Fatalf("fan-out %d: completed %d of %d offered", int(f), srv.Completed(), srv.Offered())
		}
		if got := vm.CPUTime(); got != 100*100*sim.Microsecond {
			t.Fatalf("fan-out %d: executed %v, want one 100us subtask a request", int(f), got)
		}
	}
}
