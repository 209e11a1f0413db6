// Package trace is the structured event recorder behind every instrumented
// subsystem of the simulator. Events are keyed by virtual time (plain uint64
// cycles — this package deliberately does not import internal/sim, so the
// engine can embed a Recorder without an import cycle) and typed: duration
// spans, instants, flow arrows that link a URPC send on one core to its
// receive on another, and async spans for operations (monitor agreement
// rounds) that overlap on a single core.
//
// The overhead contract: a nil *Recorder is a valid, disabled recorder —
// every method nil-checks its receiver and returns immediately, so the
// tracing-off cost at an instrumentation site is one predicted branch.
// Recording itself never formats anything: event names must be static string
// constants, arguments are raw integers, and ring-mode recorders reuse a
// fixed buffer, so the hot path performs no allocation in steady state.
// Rendering (text dump, Chrome trace JSON) happens only at export time.
package trace

// Kind is the type of one trace event, mirroring the Chrome trace-event
// phases it exports to.
type Kind uint8

const (
	// Begin/End bracket a duration span on one core's timeline ('B'/'E').
	Begin Kind = iota
	End
	// Instant is a point event ('i').
	Instant
	// FlowOut/FlowIn are the two ends of a flow arrow ('s'/'f'): a FlowOut
	// inside a span on core A links to the FlowIn with the same ID inside a
	// span on core B — the URPC send→recv causality link.
	FlowOut
	FlowIn
	// AsyncBegin/AsyncEnd bracket an async span ('b'/'e'), correlated by ID
	// rather than nesting, for operations that overlap on one timeline
	// (concurrent monitor agreement rounds).
	AsyncBegin
	AsyncEnd
	// Count is a sampled counter value ('C'); Arg carries the sample.
	Count
)

func (k Kind) String() string {
	switch k {
	case Begin:
		return "B"
	case End:
		return "E"
	case Instant:
		return "i"
	case FlowOut:
		return "s"
	case FlowIn:
		return "f"
	case AsyncBegin:
		return "b"
	case AsyncEnd:
		return "e"
	case Count:
		return "C"
	}
	return "?"
}

// Subsystem tags an event with the layer that emitted it; it becomes the
// Chrome trace category.
type Subsystem uint8

const (
	SubSim Subsystem = iota
	SubCache
	SubLink
	SubURPC
	SubMonitor
	SubKernel
	SubBaseline
	SubApp
	SubObs
)

func (s Subsystem) String() string {
	switch s {
	case SubSim:
		return "sim"
	case SubCache:
		return "cache"
	case SubLink:
		return "link"
	case SubURPC:
		return "urpc"
	case SubMonitor:
		return "monitor"
	case SubKernel:
		return "kernel"
	case SubBaseline:
		return "baseline"
	case SubApp:
		return "app"
	case SubObs:
		return "obs"
	}
	return "?"
}

// Event is one structured trace record. Name must be a static string
// constant (the zero-alloc contract); ID correlates the two ends of a flow
// or async span and is 0 when unused; Arg carries one event-specific integer
// (a latency, a fan-out count, a commit flag).
type Event struct {
	At   uint64 // virtual time in cycles
	ID   uint64
	Arg  uint64
	Name string
	Kind Kind
	Sub  Subsystem
	Core int32 // emitting core, or -1 for engine context
}

// Recorder accumulates events. The zero value is unusable; a nil *Recorder
// is the disabled recorder.
type Recorder struct {
	events []Event
	ring   int    // >0: keep only the last ring events (flight recorder)
	n      uint64 // total events emitted (exceeds len(events) after ring wrap)
}

// NewRecorder returns a full recorder that keeps every event.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRing returns a flight recorder keeping only the most recent n events —
// bounded memory for always-on recording, dumped on test failure or fault
// replay.
func NewRing(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: n, events: make([]Event, 0, n)}
}

// Emit records one event. Safe (and near-free) on a nil receiver.
func (r *Recorder) Emit(at uint64, k Kind, sub Subsystem, core int32, name string, id, arg uint64) {
	if r == nil {
		return
	}
	ev := Event{At: at, ID: id, Arg: arg, Name: name, Kind: k, Sub: sub, Core: core}
	if r.ring > 0 && len(r.events) == r.ring {
		r.events[r.n%uint64(r.ring)] = ev
	} else {
		r.events = append(r.events, ev)
	}
	r.n++
}

// Len returns the total number of events emitted (including any that a ring
// recorder has since overwritten).
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Events returns the retained events in emission order. The slice aliases
// the recorder's buffer except after a ring wrap.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if r.ring == 0 || r.n <= uint64(r.ring) {
		return r.events
	}
	// Ring wrapped: the oldest retained event sits at the next write slot.
	cut := int(r.n % uint64(r.ring))
	out := make([]Event, 0, r.ring)
	out = append(out, r.events[cut:]...)
	return append(out, r.events[:cut]...)
}

// Reset discards all recorded events, keeping the mode and capacity.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	r.n = 0
}
