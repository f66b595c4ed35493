package obs

import (
	"context"
	"sync"
	"testing"
)

func TestTraceSourceDeterministicReplay(t *testing.T) {
	a := NewTraceSource(42, 4)
	b := NewTraceSource(42, 4)
	for i := 0; i < 32; i++ {
		ta, tb := a.Next(), b.Next()
		if ta != tb {
			t.Fatalf("request %d: %+v vs %+v — same seed must replay identically", i, ta, tb)
		}
		if len(ta.ID) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", ta.ID)
		}
	}
	other := NewTraceSource(43, 4).Next()
	if other.ID == NewTraceSource(42, 4).Next().ID {
		t.Fatal("different seeds should mint different first IDs")
	}
}

func TestTraceSourceSampling(t *testing.T) {
	ts := NewTraceSource(1, 3)
	var sampled int
	for i := 0; i < 9; i++ {
		if ts.Next().Sampled {
			sampled++
		}
	}
	if sampled != 3 { // requests 1, 4, 7
		t.Fatalf("sampled %d of 9 with every=3, want 3", sampled)
	}
	if NewTraceSource(1, 0).Next().Sampled {
		t.Fatal("every=0 must disable sampling")
	}
	if !NewTraceSource(1, 1).Next().Sampled {
		t.Fatal("every=1 must sample every request")
	}
}

func TestTraceSourceUniqueUnderConcurrency(t *testing.T) {
	ts := NewTraceSource(7, 1)
	const workers, per = 8, 100
	ids := make(chan string, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ids <- ts.Next().ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[string]bool, workers*per)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{ID: "00000000deadbeef", Sampled: true}
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("bare context should carry no trace")
	}
	if _, ok := TraceContextFrom(nil); ok { //nolint:staticcheck // nil-safety contract
		t.Fatal("nil context should carry no trace")
	}
}

func TestSpanTracePropagation(t *testing.T) {
	rec := NewRecorder(NewRegistry(), nil)
	ctx := WithTraceContext(context.Background(), TraceContext{ID: "abc0000000000001", Sampled: true})
	root := rec.StartCtx(ctx, "serve_request")
	child := root.Child("serve_lease")
	grand := child.Child("localize")
	if grand.TraceID() != "abc0000000000001" {
		t.Fatalf("grandchild trace = %q, want propagation from root", grand.TraceID())
	}
	grand.End()
	child.End()
	root.End()
	if rec.Counter("stage_serve_request_calls_total").Value() != 1 {
		t.Fatal("traced span should still feed stage counters")
	}

	untraced := rec.StartCtx(context.Background(), "s")
	if untraced.TraceID() != "" {
		t.Fatalf("untraced span has trace %q", untraced.TraceID())
	}
}

func TestTraceStoreBoundedFIFO(t *testing.T) {
	s := NewTraceStore(3)
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Put("c", []byte("3"))
	s.Put("d", []byte("4")) // evicts a
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest trace should be evicted at capacity")
	}
	if got, ok := s.Get("d"); !ok || string(got) != "4" {
		t.Fatalf("newest trace missing: %q ok=%v", got, ok)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Put("d", []byte("4b")) // overwrite does not evict
	if s.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", s.Len())
	}
}

func TestTraceNilSafety(t *testing.T) {
	var ts *TraceSource
	if tc := ts.Next(); tc.ID != "" || tc.Sampled {
		t.Fatalf("nil source minted %+v", tc)
	}
	var store *TraceStore
	store.Put("x", nil)
	if _, ok := store.Get("x"); ok {
		t.Fatal("nil store should hold nothing")
	}
	if store.Len() != 0 {
		t.Fatal("nil store should retain nothing")
	}
}

// Len reports how many traces are currently retained. Nil-safe.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fifo)
}

// TraceID returns the trace ID riding the span ("" on nil or untraced).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.trace
}
