package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// EventType classifies one registry lifecycle event.
type EventType string

// The registry lifecycle event taxonomy. Every transition an operator may
// need to reconstruct ("why is this app cold?", "when did it last
// quarantine?") has exactly one type here.
const (
	// EventRegister: a fresh app@version was registered.
	EventRegister EventType = "register"
	// EventHotSwap: a registered app@version was re-registered; the old
	// entry retires once its leases drain.
	EventHotSwap EventType = "hot_swap"
	// EventLoad: a snapshot load succeeded; the entry is live.
	EventLoad EventType = "load"
	// EventLoadFailure: a snapshot load failed.
	EventLoadFailure EventType = "load_failure"
	// EventQuarantineEnter: the entry entered quarantine after a failed load.
	EventQuarantineEnter EventType = "quarantine_enter"
	// EventQuarantineExit: a previously failing entry loaded successfully.
	EventQuarantineExit EventType = "quarantine_exit"
	// EventReprobe: a quarantined entry's backoff elapsed and a request is
	// probing the snapshot again.
	EventReprobe EventType = "re_probe"
	// EventEvict: a live idle entry was unloaded to fit the byte budget.
	EventEvict EventType = "evict"
	// EventRetireFreed: a hot-swapped-out entry's last lease drained and its
	// memory was released.
	EventRetireFreed EventType = "retire_freed"
)

// KnownEventType reports whether t is part of the journal taxonomy.
func KnownEventType(t EventType) bool {
	switch t {
	case EventRegister, EventHotSwap, EventLoad, EventLoadFailure,
		EventQuarantineEnter, EventQuarantineExit, EventReprobe, EventEvict,
		EventRetireFreed:
		return true
	}
	return false
}

// Event is one journal record. Seq is assigned by the journal and strictly
// increasing; UnixNs comes from the journal owner's injectable clock, so a
// simulated fleet produces byte-identical journals across runs.
type Event struct {
	Seq     uint64    `json:"seq"`
	Type    EventType `json:"type"`
	App     string    `json:"app"`
	Version string    `json:"version,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	UnixNs  int64     `json:"unix_ns"`
}

// Journal is a bounded, goroutine-safe ring of lifecycle events. Appends
// past capacity drop the oldest record (the drop count is retained), and
// every append also drains into the owning registry's labeled event counter
// ("registry_events_total{app=…,type=…}") so totals survive ring turnover.
// Nil is a valid journal that records nothing.
type Journal struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	buf   []Event // ring storage
	head  int     // index of the oldest record
	n     int     // live records
	drops uint64

	events *CounterVec // registry_events_total{app, type}; nil without metrics
}

// JournalEventsMetric is the labeled counter fed by every journal append.
const JournalEventsMetric = "registry_events_total"

// NewJournal builds a journal holding at most cap events (cap <= 0 gets a
// default of 1024). met may be nil — the journal then only keeps the ring.
func NewJournal(cap int, met *Registry) *Journal {
	if cap <= 0 {
		cap = 1024
	}
	j := &Journal{cap: cap, buf: make([]Event, cap)}
	if met != nil {
		j.events = met.CounterVec(JournalEventsMetric, "app", "type")
	}
	return j
}

// Record appends one event, assigning its sequence number, and bumps the
// labeled event counter. Returns the stored event. Nil-safe.
func (j *Journal) Record(typ EventType, app, version, detail string, unixNs int64) Event {
	if j == nil {
		return Event{}
	}
	j.mu.Lock()
	j.seq++
	e := Event{Seq: j.seq, Type: typ, App: app, Version: version, Detail: detail, UnixNs: unixNs}
	if j.n == j.cap {
		j.buf[j.head] = e
		j.head = (j.head + 1) % j.cap
		j.drops++
	} else {
		j.buf[(j.head+j.n)%j.cap] = e
		j.n++
	}
	ev := j.events
	j.mu.Unlock()
	ev.With(app, string(typ)).Add(1)
	return e
}

// Events returns the retained records, oldest first. Nil-safe.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.head+i)%j.cap]
	}
	return out
}

// Stats reports the journal shape: total events ever recorded, retained
// records, ring capacity, and how many records the ring has dropped. Nil-safe.
func (j *Journal) Stats() (total uint64, retained, capacity int, dropped uint64) {
	if j == nil {
		return 0, 0, 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.n, j.cap, j.drops
}

// --- codec -------------------------------------------------------------------

// Typed journal decode errors. DecodeEvents returns exactly these (wrapped
// with positional context) and never panics — the /v1/events surface and
// its fuzz target hold the decoder to that contract.
var (
	// ErrEventJSON: the payload is not a valid JSON event array.
	ErrEventJSON = errors.New("journal: invalid event JSON")
	// ErrEventType: an event carries an unknown type.
	ErrEventType = errors.New("journal: unknown event type")
	// ErrEventOrder: sequence numbers are not strictly increasing.
	ErrEventOrder = errors.New("journal: sequence out of order")
	// ErrEventShape: an event is structurally invalid (zero seq, empty app).
	ErrEventShape = errors.New("journal: malformed event")
)

// EncodeEvents renders events as a deterministic JSON array (stable field
// order, no indentation).
func EncodeEvents(events []Event) ([]byte, error) {
	if events == nil {
		events = []Event{}
	}
	return json.Marshal(events)
}

// DecodeEvents parses and validates a JSON event array: well-formed JSON,
// known types, non-zero strictly-increasing sequence numbers, and a
// non-empty app on every record. All failures are typed; hostile input
// never panics.
func DecodeEvents(data []byte) ([]Event, error) {
	var events []Event
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEventJSON, err)
	}
	var prev uint64
	for i, e := range events {
		if !KnownEventType(e.Type) {
			return nil, fmt.Errorf("%w: event %d type %q", ErrEventType, i, e.Type)
		}
		if e.Seq == 0 {
			return nil, fmt.Errorf("%w: event %d has zero seq", ErrEventShape, i)
		}
		if e.App == "" {
			return nil, fmt.Errorf("%w: event %d has no app", ErrEventShape, i)
		}
		if e.Seq <= prev && i > 0 {
			return nil, fmt.Errorf("%w: event %d seq %d after %d", ErrEventOrder, i, e.Seq, prev)
		}
		prev = e.Seq
	}
	return events, nil
}
