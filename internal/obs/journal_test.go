package obs

import (
	"fmt"
	"testing"
)

func TestJournalRecordAndCounter(t *testing.T) {
	reg := NewRegistry()
	j := NewJournal(16, reg)
	j.Record(EventRegister, "com.app.a", "v1", "", 100)
	j.Record(EventLoad, "com.app.a", "v1", "", 200)
	j.Record(EventLoadFailure, "com.app.b", "v1", "corrupt", 300)

	events := j.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	snap := reg.Snapshot()
	if snap[`registry_events_total{app="com.app.a",type="load"}`] != 1 {
		t.Fatalf("labeled event counter missing: %v", snap)
	}
	if snap[`registry_events_total{app="com.app.b",type="load_failure"}`] != 1 {
		t.Fatalf("load_failure counter missing: %v", snap)
	}
}

func TestJournalRingDropsOldest(t *testing.T) {
	j := NewJournal(4, nil)
	for i := 0; i < 10; i++ {
		j.Record(EventLoad, fmt.Sprintf("app-%d", i), "", "", int64(i))
	}
	events := j.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d, want 4", len(events))
	}
	if events[0].App != "app-6" || events[3].App != "app-9" {
		t.Fatalf("ring retained wrong window: %+v", events)
	}
	total, retained, capacity, dropped := j.Stats()
	if total != 10 || retained != 4 || capacity != 4 || dropped != 6 {
		t.Fatalf("stats = %d/%d/%d/%d, want 10/4/4/6", total, retained, capacity, dropped)
	}
	// Counters survive ring turnover.
	reg := NewRegistry()
	j2 := NewJournal(2, reg)
	for i := 0; i < 5; i++ {
		j2.Record(EventEvict, "a", "", "", 0)
	}
	if got := reg.Snapshot()[`registry_events_total{app="a",type="evict"}`]; got != 5 {
		t.Fatalf("counter across turnover = %v, want 5", got)
	}
}

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	if e := j.Record(EventLoad, "a", "", "", 0); e.Seq != 0 {
		t.Fatal("nil journal should record nothing")
	}
	if j.Events() != nil {
		t.Fatal("nil journal has no events")
	}
	total, retained, capacity, dropped := j.Stats()
	if total != 0 || retained != 0 || capacity != 0 || dropped != 0 {
		t.Fatal("nil journal stats should be zero")
	}
	// Journal without a metrics registry still keeps the ring.
	j2 := NewJournal(4, nil)
	j2.Record(EventLoad, "a", "", "", 0)
	if len(j2.Events()) != 1 {
		t.Fatal("metric-less journal should still retain events")
	}
}
