// Package trace records per-core execution spans of a simulation run in
// the Chrome trace-event format, loadable in chrome://tracing or
// Perfetto. A trace shows each worker core's timeline — which request
// ran when, where it faulted and yielded, where busy-wait burned the
// core — making HOL blocking and the yield/busy-wait difference directly
// visible.
//
// Simulated cycle timestamps are emitted as microseconds (the trace
// viewer's native unit) at the modeled 2 GHz.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Kind classifies a span for coloring and filtering.
type Kind string

// Span kinds emitted by the scheduler instrumentation.
const (
	KindRun      Kind = "run"       // unithread executing application code
	KindBusyWait Kind = "busy-wait" // core spinning on a fetch or TX
	KindFetch    Kind = "fetch"     // request blocked on its page fetch (yielded)
	KindDispatch Kind = "dispatch"  // dispatcher core activity
	KindStall    Kind = "mem-stall" // memory node unavailable (fault window)
	KindFailover Kind = "failover"  // fetch re-routed to a replica node
	KindMigrate  Kind = "migrate"   // hot-page migration copy + owner flip
)

// TidFailover is the track id for failover-read instants, between the
// reclaimer lane (2000) and the per-memory-node stall lanes (3000+k).
const TidFailover = 2500

// TidMigrate is the track id for page-migration spans, between the
// failover lane and the per-memory-node stall lanes.
const TidMigrate = 2600

// event is one Chrome trace "complete" event (ph=X). High-rate spans
// (one per request, one per RX batch) are recorded in typed form — the
// unexported fields below — and their Name/Args are rendered only when
// the trace is exported, so recording them allocates nothing beyond the
// amortized slice append. The unexported fields are invisible to
// encoding/json; render materializes them first.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`

	typed     uint8 // typedNone: Name/Args are authoritative
	reqID     uint64
	reqClass  string
	reqFaults int
	packets   int
}

// Typed-event discriminators.
const (
	typedNone = iota
	typedRun  // a worker's on-core request stint
	typedPoll // a dispatcher rx-poll batch
)

// render materializes a typed event's Name and Args. The rendered output
// is byte-identical to what the eager map-based recording produced.
func (e *event) render() event {
	out := *e
	switch e.typed {
	case typedRun:
		out.Name = fmt.Sprintf("req %d", e.reqID)
		out.Args = map[string]any{"faults": e.reqFaults, "class": e.reqClass}
	case typedPoll:
		out.Name = "rx-poll"
		out.Args = map[string]any{"packets": e.packets}
	}
	return out
}

// Recorder accumulates spans. The zero value is inert (all methods are
// no-ops on a nil Recorder), so instrumentation can stay in place
// unconditionally.
type Recorder struct {
	events []event
	limit  int
	tracks []threadName
}

// New returns a recorder bounded to limit spans (0 = 1<<20). The bound
// keeps accidental always-on tracing from exhausting memory.
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// Span records a complete span on (track tid) from start to end.
func (r *Recorder) Span(kind Kind, tid int, name string, start, end sim.Time, args map[string]any) {
	if r == nil || len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, event{
		Name: name,
		Cat:  string(kind),
		Ph:   "X",
		TS:   start.Micros(),
		Dur:  (end - start).Micros(),
		PID:  1,
		TID:  tid,
		Args: args,
	})
}

// RunSpan records one on-core request stint (KindRun) in typed form:
// no name formatting, no attribute map — the per-request recording cost
// of a traced run is one slice append.
func (r *Recorder) RunSpan(tid int, id uint64, class string, faults int, start, end sim.Time) {
	if r == nil || len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, event{
		Cat: string(KindRun), Ph: "X",
		TS: start.Micros(), Dur: (end - start).Micros(),
		PID: 1, TID: tid,
		typed: typedRun, reqID: id, reqClass: class, reqFaults: faults,
	})
}

// PollSpan records one dispatcher rx-poll batch (KindDispatch) in typed
// form, like RunSpan.
func (r *Recorder) PollSpan(tid, packets int, start, end sim.Time) {
	if r == nil || len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, event{
		Cat: string(KindDispatch), Ph: "X",
		TS: start.Micros(), Dur: (end - start).Micros(),
		PID: 1, TID: tid,
		typed: typedPoll, packets: packets,
	})
}

// Instant records a zero-duration marker.
func (r *Recorder) Instant(kind Kind, tid int, name string, at sim.Time) {
	if r == nil || len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, event{
		Name: name, Cat: string(kind), Ph: "i", TS: at.Micros(), PID: 1, TID: tid,
	})
}

// NameTrack labels an extra track (beyond the worker/dispatcher/
// reclaimer lanes WriteJSON names itself) — e.g. one lane per memory
// node at tid 3000+k showing its stall windows.
func (r *Recorder) NameTrack(tid int, name string) {
	if r == nil {
		return
	}
	r.tracks = append(r.tracks, threadName{Name: "thread_name", Ph: "M",
		PID: 1, TID: tid, Args: map[string]any{"name": name}})
}

// Event is an exported view of one recorded trace event, for tests and
// audits that assert on trace contents without going through JSON.
type Event struct {
	Name  string
	Kind  Kind
	Phase string // "X" span, "i" instant
	TS    float64
	Dur   float64
	Tid   int
}

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.events))
	for i := range r.events {
		e := r.events[i].render()
		out[i] = Event{Name: e.Name, Kind: Kind(e.Cat), Phase: e.Ph,
			TS: e.TS, Dur: e.Dur, Tid: e.TID}
	}
	return out
}

// Len reports recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// trackNames gives the viewer readable per-track labels.
type threadName struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteJSON emits the trace as a Chrome trace-event JSON array. Track
// ids follow the convention: 0..N-1 workers, 1000+d dispatchers, 2000
// reclaimer.
func (r *Recorder) WriteJSON(w io.Writer, workers, dispatchers int) error {
	if r == nil {
		return fmt.Errorf("trace: nil recorder")
	}
	var all []any
	for i := 0; i < workers; i++ {
		all = append(all, threadName{Name: fmt.Sprintf("worker %d", i), Ph: "M",
			PID: 1, TID: i, Args: map[string]any{"name": fmt.Sprintf("worker %d", i)}})
	}
	for d := 0; d < dispatchers; d++ {
		all = append(all, threadName{Name: "thread_name", Ph: "M",
			PID: 1, TID: 1000 + d, Args: map[string]any{"name": fmt.Sprintf("dispatcher %d", d)}})
	}
	all = append(all, threadName{Name: "thread_name", Ph: "M",
		PID: 1, TID: 2000, Args: map[string]any{"name": "reclaimer"}})
	all = append(all, threadName{Name: "thread_name", Ph: "M",
		PID: 1, TID: TidFailover, Args: map[string]any{"name": "failover"}})
	all = append(all, threadName{Name: "thread_name", Ph: "M",
		PID: 1, TID: TidMigrate, Args: map[string]any{"name": "migrate"}})
	for _, tn := range r.tracks {
		all = append(all, tn)
	}
	for i := range r.events {
		all = append(all, r.events[i].render())
	}
	enc := json.NewEncoder(w)
	return enc.Encode(all)
}
