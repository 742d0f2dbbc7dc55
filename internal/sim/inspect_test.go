package sim

// Engine methods only tests call.

// Pending returns the number of events still queued. Cancelled events are
// removed from the queue eagerly, so this is O(1).
func (e *Engine) Pending() int { return e.wheel.n + len(e.far) }

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(MaxTime) }

// Step executes exactly one event and reports whether one was available.
func (e *Engine) Step() bool {
	ev := e.first()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}
