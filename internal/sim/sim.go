// Package sim implements the discrete-event simulation engine that every
// other component of the repository runs on: a virtual nanosecond clock and
// a priority queue of scheduled events with deterministic ordering.
//
// Nothing in the simulator sleeps or reads the wall clock; experiments are
// pure functions of their configuration and seed.
//
// The event loop is on the hot path of every experiment (a busy-poll
// ticker alone fires ~20,000 events per simulated second per agent), so
// the queue is a hand-rolled binary heap — no container/heap interface
// round-trips or `any` boxing — and fired or canceled events are recycled
// through a per-Loop free list instead of being left to the garbage
// collector. Events that are always scheduled the same delay ahead and
// never canceled (the agents' polls) can skip the heap altogether: a Lane
// is a FIFO that is already in firing order, merged with the heap root at
// each pop.
package sim

import (
	"fmt"
	"strconv"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations in virtual-time nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a time.Duration into virtual-time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// ToDuration converts a virtual Time (interpreted as a span) into a
// time.Duration.
func (t Time) ToDuration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return time.Duration(t).String() }

// MarshalText writes t as a Go duration ("1.5s"), the form every flag,
// grid file and key=value grammar spells a time in.
func (t Time) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText reads a Go duration (time.ParseDuration); any sign.
func (t *Time) UnmarshalText(text []byte) error {
	d, err := time.ParseDuration(string(text))
	if err != nil {
		return fmt.Errorf("bad duration %q", text)
	}
	*t = Duration(d)
	return nil
}

// MarshalJSON keeps a JSON document's time a number of nanoseconds, as
// the trace schema and the scheduler's Result write it; only text forms
// spell it as a duration.
func (t Time) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, int64(t), 10), nil }

// Event is a scheduled callback. The zero value is invalid; events are
// created through Loop.At and Loop.After.
//
// An *Event is owned by its Loop and is only valid while the event is
// pending: once it fires or is canceled the Loop may recycle the struct
// for a later At/After. Callers that retain an *Event across callbacks
// must drop (nil) their reference when the event fires or immediately
// after canceling it, and must not call Cancel through a reference that
// may already have fired.
type Event struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	fn   func()
	idx  int // heap index; -1 once fired/canceled
}

// before reports whether a fires ahead of b: earlier time first, FIFO
// among events at the same instant.
func (a *Event) before(b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Loop is the event loop. It is single-threaded: all callbacks run on the
// goroutine that calls Run/Step, in deterministic order. Distinct Loops
// share no state, so independent simulations can run on concurrent
// goroutines (see internal/harness.RunAll).
type Loop struct {
	now     Time
	queue   []*Event // binary min-heap ordered by (when, seq)
	free    []*Event // recycled events, reused by At/After
	first   *Lane    // the lane whose head fires first; nil when all are empty
	laned   int      // events pending in all lanes
	nextSeq uint64
	fired   uint64
	lanes   Lane // the first lane asked for, heading a list of the rest
}

// NewLoop returns an empty loop with the clock at zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Len returns the number of pending events.
func (l *Loop) Len() int { return len(l.queue) + l.laned }

// Fired returns the total number of events executed so far; useful in
// tests and as a progress measure.
func (l *Loop) Fired() uint64 { return l.fired }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a simulator bug, and silently clamping would hide it.
func (l *Loop) At(t Time, fn func()) *Event {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	e := l.alloc(t, fn)
	l.push(e)
	return e
}

// After schedules fn to run d after the current time.
func (l *Loop) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return l.At(l.now+d, fn)
}

// Cancel removes a pending event and recycles it. Canceling nil, or an
// event that already fired or was already canceled (and has not been
// recycled since — see the Event doc comment), is a no-op.
func (l *Loop) Cancel(e *Event) {
	if e == nil || e.idx < 0 {
		return
	}
	l.removeAt(e.idx)
	e.idx = -1
	l.recycle(e)
}

// alloc takes an event from the free list (or the heap allocator) and
// initializes it for scheduling.
func (l *Loop) alloc(t Time, fn func()) *Event {
	var e *Event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		e = new(Event)
	}
	e.when = t
	e.seq = l.nextSeq
	e.fn = fn
	l.nextSeq++
	return e
}

// recycle returns a detached (idx < 0) event to the free list.
func (l *Loop) recycle(e *Event) {
	e.fn = nil
	l.free = append(l.free, e)
}

// rearm re-schedules an event that just fired (idx < 0, not yet
// recycled) without going through the free list. Used by Ticker so each
// tick reuses the same Event.
func (l *Loop) rearm(e *Event, t Time, fn func()) {
	e.when = t
	e.seq = l.nextSeq
	e.fn = fn
	l.nextSeq++
	l.push(e)
}

// push inserts e into the heap.
func (l *Loop) push(e *Event) {
	l.queue = append(l.queue, e)
	l.siftUp(len(l.queue)-1, e)
}

// popFront removes and returns the earliest heap event, marking it
// detached.
func (l *Loop) popFront() *Event {
	q := l.queue
	e := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	l.queue = q[:n]
	if n > 0 {
		l.siftDown(0, last)
	}
	e.idx = -1
	return e
}

// removeAt deletes the event at heap index i.
func (l *Loop) removeAt(i int) {
	q := l.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	l.queue = q[:n]
	if i == n {
		return
	}
	// Re-place the displaced last element; it may need to move either way.
	l.siftDown(i, last)
	if l.queue[i] == last {
		l.siftUp(i, last)
	}
}

// siftUp places e at index i and restores heap order toward the root.
func (l *Loop) siftUp(i int, e *Event) {
	q := l.queue
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = i
		i = p
	}
	q[i] = e
	e.idx = i
}

// siftDown places e at index i and restores heap order toward the leaves.
func (l *Loop) siftDown(i int, e *Event) {
	q := l.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].idx = i
		i = c
	}
	q[i] = e
	e.idx = i
}

// maxTime is past every event: a bound that lets anything fire.
const maxTime = Time(1<<63 - 1)

// step fires the earliest pending event if it is due by end, with the
// clock at its time, or where the clock is if a StepLate has already
// taken it past that. It reports whether an event fired. The clock never
// goes backwards, which is what keeps every lane in (when, seq) order.
func (l *Loop) step(end Time) bool {
	if ln := l.first; ln != nil && (len(l.queue) == 0 || ln.ahead(l.queue[0])) {
		return l.stepLane(ln, end)
	}
	if len(l.queue) == 0 || l.queue[0].when > end {
		return false
	}
	e := l.popFront()
	l.now = max(l.now, e.when)
	l.fired++
	fn := e.fn
	e.fn = nil
	fn()
	if e.idx < 0 { // not re-armed by the callback (Ticker re-arms)
		l.recycle(e)
	}
	return true
}

// stepLane is step when the head of lane ln is the earliest event. It is
// a function of its own so that step's heap path, which single-server runs
// mostly take (their polls run ahead on the heap), carries none of it.
func (l *Loop) stepLane(ln *Lane, end Time) bool {
	h := &ln.ring[ln.head]
	if h.when > end {
		return false
	}
	l.now = max(l.now, h.when)
	l.fired++
	fn := h.fn
	h.fn = nil
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	ln.n--
	l.laned--
	if l.lanes.next != nil {
		l.refirst()
	} else if ln.n == 0 { // a lone lane leads until it empties
		l.first = nil
	}
	fn()
	return true
}

// Step executes the next pending event, advancing the clock to its time
// (an event a StepLate has overtaken fires at the clock as it is). It
// returns false if the queue is empty.
func (l *Loop) Step() bool { return l.step(maxTime) }

// Next returns the time of the earliest pending event; ok is false when
// the queue is empty.
func (l *Loop) Next() (t Time, ok bool) {
	if ln := l.first; ln != nil && (len(l.queue) == 0 || ln.ahead(l.queue[0])) {
		return ln.ring[ln.head].when, true
	}
	if len(l.queue) == 0 {
		return 0, false
	}
	return l.queue[0].when, true
}

// StepLate is Step for a driver that paces the loop against a real clock
// (internal/rtagent) and may wake up after the next event was due: the
// event fires with the clock at max(its time, now), so callbacks that
// re-arm relative to Now() see the true elapsed time and a late wake-up
// yields one late callback instead of a burst of catch-up ones. Events
// overtaken by now keep their (time, FIFO) order and each fires at now.
func (l *Loop) StepLate(now Time) bool {
	if l.Len() == 0 {
		return false
	}
	// The head is still chosen and popped by its own (when, seq); only
	// the clock it fires at is raised.
	l.now = max(l.now, now)
	return l.step(maxTime)
}

// RunUntil executes events until the clock would pass end, then sets the
// clock to exactly end. Events scheduled at exactly end do run.
func (l *Loop) RunUntil(end Time) {
	for l.step(end) {
	}
	if l.now < end {
		l.now = end
	}
}

// Lane is a FIFO of events that all fire a fixed delay after they are
// scheduled, and are never canceled: the agents' 50 µs polls. Each push
// lands at now+d with the loop's next sequence number, and now never
// decreases, so the lane is already in (when, seq) order; the loop merges
// its head with the heap root at every pop, so the lane changes no
// event's firing order, only what finding it costs. The pending events sit
// by value in a ring that starts in the Lane itself and grows by doubling.
type Lane struct {
	loop  *Loop
	next  *Lane // the loop's next lane
	d     Time
	ring  []laneEvent // len is a power of two
	head  int         // ring index of the earliest pending event
	n     int         // pending events
	small [8]laneEvent
}

type laneEvent struct {
	when Time
	seq  uint64
	fn   func()
}

// Lane returns the loop's lane for delay d, creating it on first use; all
// callers asking for the same d share one lane.
func (l *Loop) Lane(d Time) *Lane {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", d))
	}
	ln := &l.lanes
	if ln.loop == nil { // the first lane lives in the Loop itself
		ln.init(l, d)
	}
	for ln.d != d {
		if ln.next == nil {
			ln.next = new(Lane)
			ln.next.init(l, d)
		}
		ln = ln.next
	}
	return ln
}

func (ln *Lane) init(l *Loop, d Time) {
	ln.loop, ln.d = l, d
	ln.ring = ln.small[:]
}

// ahead reports whether the lane's head, which must be pending, fires
// before e.
func (ln *Lane) ahead(e *Event) bool {
	h := &ln.ring[ln.head]
	return h.when < e.when || h.when == e.when && h.seq < e.seq
}

// before reports whether a fires ahead of b.
func (a *laneEvent) before(b *laneEvent) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// After schedules fn to run the lane's delay after the current time. It
// fires exactly where Loop.After(d, fn) would, but returns no handle: a
// lane event cannot be canceled.
func (ln *Lane) After(fn func()) {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	if ln.n == len(ln.ring) {
		ln.grow()
	}
	l := ln.loop
	when := l.now + ln.d
	ln.ring[(ln.head+ln.n)&(len(ln.ring)-1)] = laneEvent{when: when, seq: l.nextSeq, fn: fn}
	l.nextSeq++
	ln.n++
	l.laned++
	// A push changes the lane's head only if the lane was empty; the new
	// head has the largest seq yet, so it leads only by an earlier time.
	if f := l.first; f == nil || ln.n == 1 && when < f.ring[f.head].when {
		l.first = ln
	}
}

// refirst finds the leading lane again, over every lane.
func (l *Loop) refirst() {
	l.first = nil
	for ln := &l.lanes; ln != nil; ln = ln.next {
		if ln.n == 0 {
			continue
		}
		if f := l.first; f == nil || ln.ring[ln.head].before(&f.ring[f.head]) {
			l.first = ln
		}
	}
}

// grow doubles the full ring, unrolling it so head is index 0.
func (ln *Lane) grow() {
	ring := make([]laneEvent, 2*len(ln.ring))
	k := copy(ring, ln.ring[ln.head:])
	copy(ring[k:], ln.ring[:ln.head])
	ln.ring, ln.head = ring, 0
}

// Ticker invokes fn every interval until stopped, starting at start.
// Each tick reuses the ticker's single Event, so a long-running ticker
// performs no per-tick allocation.
type Ticker struct {
	loop     *Loop
	interval Time
	fn       func()
	ev       *Event
	tickFn   func() // t.tick bound once; avoids a per-tick method-value alloc
	stopped  bool
}

// NewTicker starts a ticker whose first tick fires at start.
func (l *Loop) NewTicker(start, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{loop: l, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.ev = l.At(start, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have called Stop
		// The tick event has just fired and is detached; re-arm it in
		// place rather than allocating a fresh event.
		t.loop.rearm(t.ev, t.loop.now+t.interval, t.tickFn)
	}
}

// Stop halts the ticker. Safe to call from inside the tick callback and
// idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.loop.Cancel(t.ev)
}
