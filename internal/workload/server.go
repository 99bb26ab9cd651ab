package workload

import (
	"fmt"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/metrics"
	"smartharvest/internal/sim"
)

// ServerConfig describes a latency-critical, open-loop request server.
type ServerConfig struct {
	Name string
	// Arrival and Service must own their randomness: they share no state
	// with each other, with Fanout or Stagger, or with anything else the
	// run touches, because a high-rate server draws them ahead on another
	// goroutine (pipeline.go).
	Arrival Arrival
	Service ServiceDist
	// Fanout gives the number of parallel subtasks per request; each
	// subtask draws its own service time and the request completes when
	// the last subtask finishes. Nil means one subtask per request.
	Fanout FanoutDist
	// Stagger, if non-nil, delays each subtask after the first by a
	// sampled amount, modeling dispatch through the application's
	// internal queues instead of an instantaneous concurrency spike.
	Stagger ServiceDist
	// Warmup discards latency samples recorded before this time, so the
	// learner's cold start does not pollute steady-state tails.
	Warmup sim.Time
}

// Server runs a latency-critical application inside a VM: requests arrive
// open-loop, fan out into CPU-bound subtasks on the VM's vCPUs, and their
// end-to-end latency (guest queueing + dispatch waits + service) is
// recorded. This models the paper's primary workloads; the client runs "in
// the same VM", i.e. no network component, exactly as in the paper's
// methodology.
type Server struct {
	cfg  ServerConfig
	loop *sim.Loop
	vm   *hypervisor.VM

	latency   *metrics.Histogram
	bounds    []sim.Time // phase boundaries (ConfigurePhases)
	phases    []*metrics.Histogram
	completed uint64
	offered   uint64
	started   bool

	// The request path allocates nothing in steady state: the arrival
	// chain reschedules one method value, and the records below are drawn
	// from and returned to per-server free lists.
	arrive       func() // s.arrival, bound once in NewServer
	batch        int    // how many requests the scheduled arrival admits
	freeRequests *request
	freeSubtasks *subtask

	// Windows of probeArrivals arrival events measure the arrival rate;
	// from the first at pipelineMinQPS on, pipe draws the input ahead
	// (pipeline.go).
	probeLeft int
	probeReqs int
	probeFrom sim.Time
	pipe      *pipeline
}

// request is one in-flight request. The server owns the record: admit takes
// it from the free list and the last subtask's completion puts it back, so
// the hypervisor only ever holds the join callback, never the record.
type request struct {
	s         *Server
	start     sim.Time
	remaining int    // subtasks still to finish; 0 on the free list
	join      func() // r.subtaskDone, bound once when the record is created
	next      *request
}

// subtask is one staggered subtask waiting for its dispatch delay; the
// delay's expiry submits the work and returns the record.
type subtask struct {
	req    *request
	work   sim.Time
	submit func() // t.fire, bound once when the record is created
	next   *subtask
}

// NewServer binds a server to a VM. The server does not generate load
// until Start is called.
func NewServer(loop *sim.Loop, vm *hypervisor.VM, cfg ServerConfig) *Server {
	if cfg.Arrival == nil || cfg.Service == nil {
		panic(fmt.Sprintf("workload: server %q needs an arrival process and service distribution", cfg.Name))
	}
	if cfg.Fanout == nil {
		cfg.Fanout = FixedFanout(1)
	}
	s := &Server{cfg: cfg, loop: loop, vm: vm, latency: metrics.NewHistogram()}
	s.arrive = s.arrival
	return s
}

// Name returns the configured name.
func (s *Server) Name() string { return s.cfg.Name }

// VM returns the VM the server runs in.
func (s *Server) VM() *hypervisor.VM { return s.vm }

// Latency returns the end-to-end request latency histogram (post-warmup).
func (s *Server) Latency() *metrics.Histogram { return s.latency }

// PhaseLatency returns the latency histogram for phase i (see
// ConfigurePhases). It panics if phases were not configured.
func (s *Server) PhaseLatency(i int) *metrics.Histogram {
	if len(s.phases) == 0 {
		panic("workload: server has no phase boundaries configured")
	}
	return s.phases[i]
}

// NumPhases returns the number of phase histograms (boundaries + 1), or 0
// if phases were not configured.
func (s *Server) NumPhases() int { return len(s.phases) }

// phaseIndex maps an arrival time to its phase histogram index.
func (s *Server) phaseIndex(at sim.Time) int {
	i := 0
	for i < len(s.bounds) && at >= s.bounds[i] {
		i++
	}
	return i
}

// ConfigurePhases additionally buckets latencies into one histogram per
// phase: phase i covers arrivals in [boundaries[i-1], boundaries[i]) with
// boundaries[-1] = 0, and a final phase takes arrivals at or after the
// last boundary. Used by the varying-load experiments (paper Table 2).
// The boundaries must ascend; it must be called before Start and only
// once.
func (s *Server) ConfigurePhases(boundaries []sim.Time) {
	if s.started {
		panic("workload: ConfigurePhases after Start")
	}
	if len(s.phases) > 0 {
		panic("workload: phases already configured")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			panic("workload: phase boundaries not ascending")
		}
	}
	s.bounds = boundaries
	for i := 0; i <= len(boundaries); i++ {
		s.phases = append(s.phases, metrics.NewHistogram())
	}
}

// Completed returns the number of finished requests (post-warmup ones and
// warmup ones alike).
func (s *Server) Completed() uint64 { return s.completed }

// Offered returns the number of requests generated so far. It stops at the
// VM's removal: a departed tenant offers no load.
func (s *Server) Offered() uint64 { return s.offered }

// Start begins generating load. It may only be called once.
func (s *Server) Start() {
	if s.started {
		panic("workload: server started twice")
	}
	s.started = true
	s.probeLeft, s.probeFrom = probeArrivals, s.loop.Now()
	s.scheduleNext()
}

// Close stops the producer goroutine drawing the server's input ahead, if
// it has one; the server must generate no more load afterwards. Close is
// idempotent, and the server closes itself once its VM is removed.
func (s *Server) Close() {
	if s.pipe != nil {
		s.pipe.close()
		s.pipe = nil
		s.cfg.Arrival, s.cfg.Service = closedInput{}, closedInput{}
	}
}

// closedInput stands in for a closed server's input: drawing it is a bug.
type closedInput struct{}

func (closedInput) Next(sim.Time) (sim.Time, int) { panic("workload: server drawn after Close") }
func (closedInput) Sample() sim.Time              { panic("workload: server drawn after Close") }

// scheduleNext arms the next arrival. Only one is ever outstanding, so its
// batch size travels in a field.
func (s *Server) scheduleNext() {
	gap, batch := s.cfg.Arrival.Next(s.loop.Now())
	s.batch = batch
	s.loop.After(gap, s.arrive)
}

// arrival admits the scheduled batch and arms the next one. A server whose
// VM has been removed (its tenant departed) falls silent instead: the VM
// would drop every request, so arrivals past that point are unobservable
// except as stranded records, heap events and Offered.
func (s *Server) arrival() {
	if s.vm.Removed() {
		s.Close()
		return
	}
	for i, n := 0, s.batch; i < n; i++ {
		s.admit()
	}
	if s.probeLeft > 0 {
		s.probe()
	}
	s.scheduleNext()
}

// probe counts one arrival event towards the rate measurement, taken over
// windows of probeArrivals events. After the first window at
// pipelineMinQPS or above, the server hands its arrival process and
// service distribution to a producer, which continues them from the next
// draw on, and stops measuring.
func (s *Server) probe() {
	s.probeReqs += s.batch
	if s.probeLeft--; s.probeLeft > 0 {
		return
	}
	if !usePipeline(s.probeReqs, s.loop.Now()-s.probeFrom) {
		s.probeLeft, s.probeReqs, s.probeFrom = probeArrivals, 0, s.loop.Now()
		return
	}
	s.pipe = newPipeline(s.cfg.Arrival, s.cfg.Service, s.loop.Now())
	s.cfg.Arrival, s.cfg.Service = s.pipe, s.pipe
	go s.pipe.produce()
}

// admit starts one request: fan out subtasks and join.
func (s *Server) admit() {
	s.offered++
	r := s.freeRequests
	if r == nil {
		r = &request{s: s}
		r.join = r.subtaskDone
	} else {
		s.freeRequests, r.next = r.next, nil
	}
	r.start = s.loop.Now()
	// A request with no subtask would never complete.
	n := max(1, s.cfg.Fanout.SampleFanout())
	r.remaining = n
	for i := 0; i < n; i++ {
		work := s.cfg.Service.Sample()
		if i == 0 || s.cfg.Stagger == nil {
			s.vm.Submit(work, r.join)
			continue
		}
		t := s.freeSubtasks
		if t == nil {
			t = &subtask{}
			t.submit = t.fire
		} else {
			s.freeSubtasks, t.next = t.next, nil
		}
		t.req, t.work = r, work
		s.loop.After(s.cfg.Stagger.Sample(), t.submit)
	}
}

// fire submits a staggered subtask once its dispatch delay has passed.
func (t *subtask) fire() {
	r, work := t.req, t.work
	s := r.s
	t.req = nil
	t.next, s.freeSubtasks = s.freeSubtasks, t
	s.vm.Submit(work, r.join)
}

// subtaskDone is the join: the last subtask to finish completes the
// request, records its latency and returns the record to the free list.
func (r *request) subtaskDone() {
	if r.remaining <= 0 {
		panic("workload: a subtask completed on a request that had already finished")
	}
	r.remaining--
	if r.remaining > 0 {
		return
	}
	s := r.s
	s.completed++
	if r.start >= s.cfg.Warmup {
		lat := int64(s.loop.Now() - r.start)
		s.latency.Record(lat)
		if len(s.phases) > 0 {
			s.phases[s.phaseIndex(r.start)].Record(lat)
		}
	}
	r.next, s.freeRequests = s.freeRequests, r
}
