package obs

import "sync"

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
