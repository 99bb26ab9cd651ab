package sim

// Methods that only this package's tests call.

// Canceled reports whether the event has been removed from the queue,
// either by firing or by Cancel. It is only meaningful while the caller
// still owns the event (see the Event doc comment on recycling).
func (e *Event) Canceled() bool { return e.idx < 0 }

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for l.step(maxTime) {
	}
}
