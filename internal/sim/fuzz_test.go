package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzLoopOrder turns bytes into a script of At / After / Lane.After /
// Cancel / Step / RunUntil / StepLate / ticker operations and runs it three
// ways: on a Loop, on a Loop with every lane push rewritten as
// Loop.After(d, fn), and on refLoop, a flat list scanned for the least
// (when, seq) at every fire. All three must fire the same events in the
// same order, each with the same clock, and agree on Len and Next after
// every operation. The second run is the lane's on/off equivalence.
func FuzzLoopOrder(f *testing.F) {
	f.Add([]byte{2, 0x31, 2, 0x22, 1, 50, 0, 0, 4, 0, 6, 90, 5, 200})
	f.Add([]byte{7, 2, 2, 0x30, 0, 49, 7, 3, 6, 255, 6, 255, 3, 0, 5, 40})
	f.Add([]byte{2, 0x32, 2, 0x31, 2, 0x30, 1, 5, 1, 50, 3, 1, 4, 0, 4, 0, 6, 120, 7, 1})
	// Twelve pushes on one lane before anything fires: the ring grows.
	f.Add(append(bytes.Repeat([]byte{2, 0x10}, 12), 6, 30, 5, 255))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		ref := runScript(data, &refLoop{})
		lane := runScript(data, &realLoop{l: NewLoop()})
		heap := runScript(data, &realLoop{l: NewLoop(), viaAfter: true})
		if ref != lane {
			t.Fatalf("Loop diverges from the (when, seq) reference\nloop: %s\nref:  %s", lane, ref)
		}
		if lane != heap {
			t.Fatalf("lane pushes fire differently through Loop.After\nlane: %s\nheap: %s", lane, heap)
		}
	})
}

// scriptLoop is what a script drives: the Loop API, with events named by
// handles so that the reference needs no *Event.
type scriptLoop interface {
	now() Time
	pending() int
	next() (Time, bool)
	at(t Time, fn func()) (h int)
	after(d Time, fn func()) (h int)
	lane(d Time, fn func())
	cancel(h int)
	step() bool
	runUntil(end Time)
	stepLate(now Time) bool
	ticker(start, interval Time, fn func())
	stop(k int)
}

// laneDelays are the script's lanes: one shared with heap delays (50),
// one short, and a zero delay that lands on the current instant.
var laneDelays = [3]Time{50 * Microsecond, 7 * Microsecond, 0}

// runScript interprets data two bytes at a time (an op and its argument)
// against lp and returns the fire log, with Len and Next appended after
// every op. An event's argument may also give it a chain: on firing, it
// schedules a successor of its own kind, as an agent's poll does.
func runScript(data []byte, lp scriptLoop) string {
	var log []byte
	pendingHeap := map[int]bool{} // handle -> still cancelable
	var handles []int
	tickers := 0
	id := 0
	// chain schedules an event of kind 0 (At), 1 (After) or 2 (lane) d
	// ahead that, on firing, schedules left more of its kind in turn.
	var chain func(kind int, d Time, left int)
	chain = func(kind int, d Time, left int) {
		id++
		me, h := id, -1
		fn := func() {
			log = fmt.Appendf(log, "%d@%d ", me, lp.now())
			delete(pendingHeap, h)
			if left > 0 {
				chain(kind, d, left-1)
			}
		}
		switch kind {
		case 0:
			h = lp.at(lp.now()+d, fn)
		case 1:
			h = lp.after(d, fn)
		default:
			lp.lane(d, fn)
			return
		}
		pendingHeap[h] = true
		handles = append(handles, h)
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch op {
		case 0: // At, a few µs to 63 µs ahead
			chain(0, Time(arg&63)*Microsecond, int(arg>>6))
		case 1: // After
			chain(1, Time(arg&63)*Microsecond, int(arg>>6))
		case 2: // Lane.After on one of three lanes
			chain(2, laneDelays[int(arg&15)%len(laneDelays)], int(arg>>4)%8)
		case 3: // Cancel a still-pending heap event
			for j := 0; j < len(handles); j++ {
				h := handles[(int(arg)+j)%len(handles)]
				if pendingHeap[h] {
					lp.cancel(h)
					delete(pendingHeap, h)
					break
				}
			}
		case 4:
			lp.step()
		case 5:
			lp.runUntil(lp.now() + Time(arg)*Microsecond)
		case 6: // StepLate, possibly past the head
			lp.stepLate(lp.now() + Time(arg)*Microsecond)
		case 7: // start a ticker (even arg) or stop one (odd arg)
			if arg%2 == 0 {
				k := tickers
				lp.ticker(lp.now()+Time(arg>>1&3)*Microsecond, Time(1+arg>>3&63)*Microsecond, func() {
					log = fmt.Appendf(log, "T%d@%d ", k, lp.now())
				})
				tickers++
			} else if tickers > 0 {
				lp.stop(int(arg>>1) % tickers)
			}
		}
		when, ok := lp.next()
		log = fmt.Appendf(log, "| len %d next %d %v\n", lp.pending(), when, ok)
	}
	for k := 0; k < tickers; k++ {
		lp.stop(k)
	}
	for lp.step() {
	}
	return string(fmt.Appendf(log, "end %d", lp.now()))
}

// realLoop drives a Loop; viaAfter sends lane pushes to Loop.After.
type realLoop struct {
	l        *Loop
	viaAfter bool
	events   []*Event
	tickers  []*Ticker
}

func (r *realLoop) now() Time            { return r.l.Now() }
func (r *realLoop) pending() int         { return r.l.Len() }
func (r *realLoop) next() (Time, bool)   { return r.l.Next() }
func (r *realLoop) step() bool           { return r.l.Step() }
func (r *realLoop) runUntil(end Time)    { r.l.RunUntil(end) }
func (r *realLoop) stepLate(t Time) bool { return r.l.StepLate(t) }
func (r *realLoop) at(t Time, fn func()) int {
	r.events = append(r.events, r.l.At(t, fn))
	return len(r.events) - 1
}
func (r *realLoop) after(d Time, fn func()) int {
	r.events = append(r.events, r.l.After(d, fn))
	return len(r.events) - 1
}
func (r *realLoop) lane(d Time, fn func()) {
	if r.viaAfter {
		r.l.After(d, fn)
		return
	}
	r.l.Lane(d).After(fn)
}
func (r *realLoop) cancel(h int) { r.l.Cancel(r.events[h]) }
func (r *realLoop) ticker(start, iv Time, fn func()) {
	r.tickers = append(r.tickers, r.l.NewTicker(start, iv, fn))
}
func (r *realLoop) stop(k int) { r.tickers[k].Stop() }

// refLoop is the reference: pending events in a flat list, the least
// (when, seq) found by a scan at every fire, a ticker re-armed by hand.
type refLoop struct {
	clock   Time
	seq     uint64
	events  []refEvent
	nextH   int
	tickers []*refTicker
}

type refEvent struct {
	when Time
	seq  uint64
	h    int
	fn   func()
}

type refTicker struct {
	h       int // handle of the pending tick
	stopped bool
}

func (r *refLoop) now() Time    { return r.clock }
func (r *refLoop) pending() int { return len(r.events) }

func (r *refLoop) least() int {
	best := -1
	for i, e := range r.events {
		if best < 0 || e.when < r.events[best].when || e.when == r.events[best].when && e.seq < r.events[best].seq {
			best = i
		}
	}
	return best
}

func (r *refLoop) next() (Time, bool) {
	if i := r.least(); i >= 0 {
		return r.events[i].when, true
	}
	return 0, false
}

func (r *refLoop) at(t Time, fn func()) int {
	r.nextH++
	r.events = append(r.events, refEvent{when: t, seq: r.seq, h: r.nextH, fn: fn})
	r.seq++
	return r.nextH
}

func (r *refLoop) after(d Time, fn func()) int { return r.at(r.clock+d, fn) }
func (r *refLoop) lane(d Time, fn func())      { r.at(r.clock+d, fn) }

func (r *refLoop) cancel(h int) {
	for i, e := range r.events {
		if e.h == h {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

func (r *refLoop) fireAt(late Time) bool {
	i := r.least()
	if i < 0 {
		return false
	}
	e := r.events[i]
	r.events = append(r.events[:i], r.events[i+1:]...)
	r.clock = max(e.when, late)
	e.fn()
	return true
}

func (r *refLoop) step() bool           { return r.fireAt(r.clock) }
func (r *refLoop) stepLate(t Time) bool { return r.fireAt(t) }

func (r *refLoop) runUntil(end Time) {
	for {
		if t, ok := r.next(); !ok || t > end {
			break
		}
		r.step()
	}
	r.clock = max(r.clock, end)
}

func (r *refLoop) ticker(start, iv Time, fn func()) {
	tk := &refTicker{}
	var tick func()
	tick = func() {
		fn()
		if !tk.stopped {
			tk.h = r.at(r.clock+iv, tick)
		}
	}
	tk.h = r.at(start, tick)
	r.tickers = append(r.tickers, tk)
}

func (r *refLoop) stop(k int) {
	if tk := r.tickers[k]; !tk.stopped {
		tk.stopped = true
		r.cancel(tk.h)
	}
}
