package workload

import (
	"runtime"
	"sync"
	"sync/atomic"

	"smartharvest/internal/sim"
)

// A high-rate server draws its input ahead. Drawing the open-loop input —
// the arrival process and the service demands — is a large share of what
// simulating a sub-millisecond primary costs, and it is a pure function of
// the two objects' own random streams. So once a server has shown a high
// arrival rate, a producer goroutine takes both objects over and draws
// them in blocks on another core, while the simulation goroutine reads
// blocks filled earlier. The draws are the ones the inline path would
// make, in the same order, so a pipelined run is bit for bit the inline
// run:
//
//   - the arrival and service objects own their randomness (split
//     streams; ServerConfig says so), and every draw from one is made
//     under its stream's lock, one block at a time, by whichever side
//     fills the block next, so the order of its draws is its own;
//   - the server calls Next only at Start and at the instant each
//     arrival fires, so the arrival chain is drawn in absolute time from
//     the instant the pipeline took over, t += gap(Next(t)), and handed
//     out as t - now; a call at any other instant panics.
//
// A consumer that finds no filled block does not wait for the producer to
// be scheduled: it takes the lock and fills the block itself, so a busy
// second core costs the pipeline its gain, not the simulation its
// progress. The producer stops at Close, which the server calls itself at
// its VM's removal, where it falls silent; harness.Run and the fleet's
// Finish close their servers on the way out. A server that is never
// closed leaves its producer parked.

// pipelineMinQPS is the arrival rate, in requests per simulated second
// over a window of probeArrivals arrival events, from which a server draws
// its input on a producer goroutine; below it, and with GOMAXPROCS 1, it
// draws inline and allocates nothing extra. Measured on
// a 2-vCPU host (go1.24; one Memcached server at rate R under
// SmartHarvest with a CPUBully, fixed simulated work, best of 3, 7
// alternating inline/pipelined pairs): R = 2.5 k won 4 of 7 pairs, median
// −5 % wall time; 5 k won 6/7, −8 %; 10 k 6/7, −10 %; 20 k 6/7, −12 %;
// 40 k 7/7, −10 %. The single-server crossover is thus between 2.5 k and
// 5 k; the constant sits above the benchmark fleet's 8 k tenants, where
// pipelining all sixteen ran 11 % faster but raised peak RSS 24 %, by the
// blocks.
const pipelineMinQPS = 10000

// probeArrivals is how many arrival events one rate measurement spans.
// A server keeps measuring until a window reaches pipelineMinQPS, so a
// source that starts calm (Memcached's MMPP swing opens in its 3 k req/s
// phase of a 20 k average) is caught at its first surge. A Poisson source
// at 8 k req/s reaches 10 k over 1,024 arrivals with odds below 1e-9 (six
// standard deviations); over 64 arrivals it does in one window of 20.
const probeArrivals = 1024

// blockLen is how many draws a block holds, and streamBlocks how many
// blocks each stream has. The producer is woken once half of a stream's
// blocks are spent, so the other half covers the time it takes to be
// scheduled.
const (
	blockLen     = 1024
	streamBlocks = 4
)

// usePipeline reports whether a server that brought reqs requests in
// elapsed simulated time should draw its input ahead.
func usePipeline(reqs int, elapsed sim.Time) bool {
	return float64(reqs)*float64(sim.Second) >= pipelineMinQPS*float64(elapsed) &&
		runtime.GOMAXPROCS(0) > 1
}

// arrivalDraw is one arrival event drawn ahead: its absolute time and
// batch.
type arrivalDraw struct {
	at    sim.Time
	batch int
}

// block is a batch of draws of one stream.
type block[T any] struct {
	items [blockLen]T
	n     int // valid items; below blockLen only in front of a fault
	fault any // what a draw panicked with after items[:n], if one did
}

// stream is one input stream: its blocks circulate between free and full,
// and the consumer reads cur. The two streams of a pipeline draw from
// objects that share no state, so each has a lock of its own.
type stream[T any] struct {
	// mu is held for every draw from the stream's object and while a
	// filled block is published.
	mu         sync.Mutex
	free, full chan *block[T]
	wake       chan<- struct{} // the pipeline's
	draw       func(*block[T]) // fills a block; called with mu held
	dead       bool            // a draw panicked: fill no more (mu)
	cur        *block[T]
	i, n       int
}

func (s *stream[T]) init(wake chan<- struct{}, draw func(*block[T])) {
	s.wake, s.draw = wake, draw
	// Each channel can hold every block, so no send on them blocks, under
	// mu or not.
	s.free = make(chan *block[T], streamBlocks)
	s.full = make(chan *block[T], streamBlocks)
	for i := 0; i < streamBlocks; i++ {
		s.free <- new(block[T])
	}
}

// next returns the stream's next draw.
func (s *stream[T]) next() T {
	if s.i == s.n {
		s.refill()
	}
	v := s.cur.items[s.i]
	s.i++
	return v
}

// refill hands the spent block back and makes the next filled one
// current, filling it here if the producer has not. A block that ends in
// a fault re-raises the draw's panic here, where the inline draw would
// have raised it.
func (s *stream[T]) refill() {
	if b := s.cur; b != nil {
		if b.fault != nil {
			panic(b.fault)
		}
		s.free <- b
		if len(s.free) >= streamBlocks/2 {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
	var b *block[T]
	select {
	case b = <-s.full:
	default:
		// The producer has not filled the next block, or is filling it
		// now: once the lock is ours, either it has been published or
		// every block is free and this goroutine draws the next one.
		s.mu.Lock()
		select {
		case b = <-s.full:
		default:
			b = <-s.free // holds every block: none is full, cur is back
			s.fill(b)
		}
		s.mu.Unlock()
	}
	s.cur, s.i, s.n = b, 0, b.n
	if b.n == 0 {
		panic(b.fault) // the block's first draw failed
	}
}

// fill draws b, catching a draw's panic into b.fault. It needs mu.
func (s *stream[T]) fill(b *block[T]) {
	b.n, b.fault = 0, nil
	if s.dead {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			b.fault, s.dead = r, true
		}
	}()
	s.draw(b)
}

// topUp fills and publishes the free blocks of s one at a time, taking mu
// for each, so the consumer waits at most for the block in progress.
func (s *stream[T]) topUp() {
	for {
		s.mu.Lock()
		var b *block[T]
		if !s.dead {
			select {
			case b = <-s.free:
				s.fill(b)
				s.full <- b
			default:
			}
		}
		s.mu.Unlock()
		if b == nil {
			return
		}
	}
}

// reset returns every block to free and forgets the stream's position,
// once the producer has exited.
func (s *stream[T]) reset() {
	if s.cur != nil {
		s.free <- s.cur
	}
	for len(s.full) > 0 {
		s.free <- <-s.full
	}
	s.cur, s.i, s.n, s.dead = nil, 0, 0, false
}

// pipeline draws a server's Arrival and ServiceDist ahead on a producer
// goroutine and stands in for both at the server. Closed pipelines, with
// their blocks, are kept in pipelines for the next server that needs one.
type pipeline struct {
	arrival Arrival     // drawn under arrivals.mu
	service ServiceDist // drawn under services.mu
	from    sim.Time    // the arrival chain's last drawn time (arrivals.mu)

	at       sim.Time // the last arrival time handed out
	arrivals stream[arrivalDraw]
	services stream[sim.Time]

	stop   atomic.Bool   // the producer is to exit
	wake   chan struct{} // the consumer spent blocks, or stop was set
	exited chan struct{} // the producer has returned
}

var pipelines sync.Pool

// newPipeline takes arrival and service over from now on, now being the
// instant of the next Next call. The caller starts the producer with
// go p.produce().
func newPipeline(arrival Arrival, service ServiceDist, now sim.Time) *pipeline {
	p, _ := pipelines.Get().(*pipeline)
	if p == nil {
		p = &pipeline{wake: make(chan struct{}, 1), exited: make(chan struct{}, 1)}
		p.arrivals.init(p.wake, p.drawArrivals)
		p.services.init(p.wake, p.drawServices)
	}
	p.arrival, p.service, p.from, p.at = arrival, service, now, now
	return p
}

// Next implements Arrival for the consumer.
func (p *pipeline) Next(now sim.Time) (sim.Time, int) {
	if now != p.at {
		panic("workload: pipelined arrival drawn off its chain")
	}
	d := p.arrivals.next()
	p.at = d.at
	return d.at - now, d.batch
}

// Sample implements ServiceDist for the consumer.
func (p *pipeline) Sample() sim.Time { return p.services.next() }

// close stops the producer, waits for it to exit and recycles p. Nothing
// may use p afterwards.
func (p *pipeline) close() {
	p.stop.Store(true)
	select {
	case p.wake <- struct{}{}:
	default:
	}
	<-p.exited
	select {
	case <-p.wake:
	default:
	}
	p.arrivals.reset()
	p.services.reset()
	p.arrival, p.service = nil, nil
	p.stop.Store(false)
	pipelines.Put(p)
}

// produce tops both streams up whenever the consumer has spent half of a
// stream's blocks, until close.
func (p *pipeline) produce() {
	for !p.stop.Load() {
		p.arrivals.topUp()
		p.services.topUp()
		<-p.wake
	}
	p.exited <- struct{}{}
}

func (p *pipeline) drawArrivals(b *block[arrivalDraw]) {
	for t := p.from; b.n < blockLen; b.n++ {
		gap, batch := p.arrival.Next(t)
		t += gap
		b.items[b.n] = arrivalDraw{t, batch}
		p.from = t
	}
}

func (p *pipeline) drawServices(b *block[sim.Time]) {
	for ; b.n < blockLen; b.n++ {
		b.items[b.n] = p.service.Sample()
	}
}
