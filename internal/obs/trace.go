package obs

import "encoding/json"

// TraceSchemaVersion identifies the explain-trace JSON schema. Bump it on
// any structural change so downstream consumers can dispatch.
const TraceSchemaVersion = 1

// ReviewTrace is the explain-trace artifact for one localized review: a
// deterministic record of which phrase matched which candidate via which
// information source at what similarity, what the kernel prescreen did,
// and how the review moved through the pipeline stages. It deliberately
// carries no wall-clock fields — for a fixed corpus, model, and review the
// JSON encoding is byte-identical across runs (durations live in the
// metrics registry and the span log instead).
//
// A ReviewTrace is filled by a single review's localization, on the one
// goroutine running it, in deterministic candidate order; it is not safe
// for concurrent writers.
type ReviewTrace struct {
	// SchemaVersion is TraceSchemaVersion at encode time.
	SchemaVersion int `json:"schema_version"`
	// Review is the raw review text.
	Review string `json:"review"`
	// IsError is the classifier's decision (§3.2.2).
	IsError bool `json:"is_error"`
	// Release is the APK version the review was matched against.
	Release string `json:"release,omitempty"`
	// Stages lists the pipeline stages that ran, in execution order, with
	// the number of mappings each produced.
	Stages []StageTrace `json:"stages,omitempty"`
	// Matches are the phrase → candidate correlations, in the order the
	// (deterministically merged) localizers emitted them.
	Matches []MatchTrace `json:"matches,omitempty"`
	// Scans record the kernel prescreen behaviour of every matrix scan.
	Scans []ScanTrace `json:"scans,omitempty"`
	// Ranked lists the recommended classes in rank order, each pointing at
	// the Matches entries that voted for it.
	Ranked []RankedTrace `json:"ranked,omitempty"`
}

// StageTrace is one pipeline stage in the explain trace.
type StageTrace struct {
	// Stage is the stage slug ("classify", "localize/app_specific", …).
	Stage string `json:"stage"`
	// Parent is the enclosing stage slug ("" for roots).
	Parent string `json:"parent,omitempty"`
	// Matches counts the mappings the stage produced (before dedup).
	Matches int `json:"matches"`
}

// MatchTrace is one phrase → candidate correlation.
type MatchTrace struct {
	// Phrase is the review phrase that triggered the match.
	Phrase string `json:"phrase"`
	// Class / Method name the matched code location.
	Class  string `json:"class"`
	Method string `json:"method,omitempty"`
	// Stage is the localizer stage slug that found the match.
	Stage string `json:"stage"`
	// Source is the §3.3 information source consulted ("method name",
	// "widget id", "app message", "API description", …).
	Source string `json:"source"`
	// Evidence is the human-readable justification string.
	Evidence string `json:"evidence"`
	// Similarity is the semantic similarity that crossed the threshold
	// (1 for exact lexical/rule matches).
	Similarity float64 `json:"similarity"`
}

// ScanTrace records the prescreen statistics of one phrase × matrix scan.
type ScanTrace struct {
	// Stage is the localizer stage slug that issued the scan.
	Stage string `json:"stage"`
	// Matrix names the scanned candidate matrix ("method_phrases",
	// "widget_ids", "catalog").
	Matrix string `json:"matrix"`
	// Phrase is the query phrase.
	Phrase string `json:"phrase"`
	// Rows is the matrix size; Pruned rows were skipped on the prescreen
	// bound alone, Evaluated rows paid a full dot product, Matched rows
	// crossed the threshold.
	Rows      int `json:"rows"`
	Pruned    int `json:"pruned"`
	Evaluated int `json:"evaluated"`
	Matched   int `json:"matched"`
}

// RankedTrace is one recommended class with pointers to its evidence.
type RankedTrace struct {
	// Rank is the 1-based position in the recommendation list.
	Rank int `json:"rank"`
	// Class is the recommended class.
	Class string `json:"class"`
	// Importance and Dependencies are the §4.3 ranking signals.
	Importance   int `json:"importance"`
	Dependencies int `json:"dependencies"`
	// Matches indexes into ReviewTrace.Matches: the correlations that
	// voted for this class.
	Matches []int `json:"matches"`
}

// NewReviewTrace starts an explain trace for one review.
func NewReviewTrace(review string) *ReviewTrace {
	return &ReviewTrace{SchemaVersion: TraceSchemaVersion, Review: review}
}

// AddStage appends a stage record. Nil-safe.
func (t *ReviewTrace) AddStage(stage, parent string, matches int) {
	if t == nil {
		return
	}
	t.Stages = append(t.Stages, StageTrace{Stage: stage, Parent: parent, Matches: matches})
}

// AddMatch appends one correlation and returns its index. Nil-safe (-1).
func (t *ReviewTrace) AddMatch(m MatchTrace) int {
	if t == nil {
		return -1
	}
	t.Matches = append(t.Matches, m)
	return len(t.Matches) - 1
}

// AddScan appends one scan record. Nil-safe.
func (t *ReviewTrace) AddScan(s ScanTrace) {
	if t == nil {
		return
	}
	t.Scans = append(t.Scans, s)
}

// MatchesFor returns the indices of the matches naming the given class, in
// emission order. Nil-safe.
func (t *ReviewTrace) MatchesFor(class string) []int {
	if t == nil {
		return nil
	}
	var out []int
	for i := range t.Matches {
		if t.Matches[i].Class == class {
			out = append(out, i)
		}
	}
	return out
}

// JSON encodes the trace with stable field order and indentation; for a
// fixed pipeline input the bytes are identical across runs.
func (t *ReviewTrace) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
